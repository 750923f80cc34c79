"""Limit law of the standardized sequence, and partial sums.

Standardizing member n yields (V0 + r_n*V1 - mean)/sd with r_n the ratio of
consecutive Fibonacci numbers; as n grows this converges, for every outcome,
to Y = (V0 + phi*V1 - (mean0 + phi*mean1)) / sqrt(var0 + phi^2*var1), the
linear form `marginal.limit_form`. The same Y is the limit of the
standardized partial sums S_n = sum of members 0 through n, which collapse
exactly to a_{n+1}*V0 + (a_{n+2}-1)*V1, the linear form `marginal.sum_form`.
Both densities come from those forms, with closed forms for exponential and
unit-uniform seeds, and `limit_density_law` and `sum_density_law` package
them for the CLI.
"""

import math

import numpy as np

from .fib_core import PHI
from .marginal import (DensityLaw, FsrvModel, closed_form_tag, exponential_model, limit_form,
                       linear_form_pdf_exponential, linear_form_pdf_uniform, sum_form)
from .seeds import Exponential, UniformUnit

_SQRT_1_PHI2 = math.sqrt(1.0 + PHI * PHI)
_UNIFORM_A = math.sqrt((1.0 + PHI * PHI) / 12.0)

#: The lower ends of Y's support, -(1+phi)/sqrt(1+phi^2) for exponential and
#: -(1+phi)/sqrt((1+phi^2)/3) for unit-uniform seeds, as the doubles nearest
#: their 50-digit values and the rest. The closed densities and cdfs map x
#: from the end: x - hi is exact near it, so the image keeps its accuracy.
_EXP_END = (-1.3763819204711736, 4.287034122518378e-17)
_UNIFORM_END = (-2.3839634168752983, -3.3226738299348067e-17)

#: The Taylor series of the exponential limit cdf over c^2, highest power
#: first, to c^15: the first term left out is below 1e-19 of F at c = 1/2.
_EXP_CDF_SERIES = [PHI * (1.0 - PHI ** (1 - k)) * (-1) ** k / math.factorial(k)
                   for k in range(17, 1, -1)]


def pdf_limit_numeric(model: FsrvModel, x):
    """Density of Y at x, a float or an array, by scaled convolution."""
    return limit_form(model).pdf(x)


def pdf_limit_exponential_closed(x):
    """Closed-form density of Y for iid exponential seeds: the density of
    V0 + phi*V1 at c = x*sqrt(1+phi^2) + (1+phi), rescaled by sqrt(1+phi^2).
    Standardization makes the result rate-free."""
    c = _SQRT_1_PHI2 * ((x - _EXP_END[0]) - _EXP_END[1])
    return linear_form_pdf_exponential(1.0, PHI, c, _SQRT_1_PHI2)


def cdf_limit_exponential_closed(x):
    """Distribution function matching pdf_limit_exponential_closed.

    Accepts a float or an array; obtained by integrating the closed density,
    F = (phi*(1 - exp(-c/phi)) - (1 - exp(-c))) / (phi - 1) for c >= 0 as
    there, or its series below c = 1/2, where that cancels to c^2/(2*phi).
    """
    c = _SQRT_1_PHI2 * ((np.asarray(x, dtype=np.float64) - _EXP_END[0]) - _EXP_END[1])
    c = np.asarray(np.maximum(c, 0.0))
    out = np.asarray((PHI * -np.expm1(-c / PHI) + np.expm1(-c)) / (PHI - 1.0))
    small = c < 0.5
    out[small] = c[small] ** 2 * np.polyval(_EXP_CDF_SERIES, c[small])
    return float(out) if np.isscalar(x) else out[()]


def pdf_limit_uniform_closed(x):
    """Closed-form density of Y for iid unit-uniform seeds: the trapezoidal
    density of V0 + phi*V1 pushed through the standardization. Y is
    symmetric, so the density is read at -|x|, from the nearer end."""
    u = _UNIFORM_A * ((-np.abs(x) - _UNIFORM_END[0]) - _UNIFORM_END[1])
    return linear_form_pdf_uniform(1.0, PHI, u, _UNIFORM_A)


def cdf_limit_uniform_closed(x):
    """Distribution function of Y for iid unit-uniform seeds: the exact
    integral of the trapezoidal density, read like it at -|x|, where only its
    ramp and plateau reach, and mirrored above 0, so it is continuous and
    hits 0 and 1 exactly at the support edges. Accepts a float or an array."""
    y = -np.abs(x)
    u = _UNIFORM_A * ((y - _UNIFORM_END[0]) - _UNIFORM_END[1])
    out = np.select([u <= 0.0, u < 1.0], [0.0, u * u / (2.0 * PHI)],
                    default=0.5 + y * (_UNIFORM_A / PHI))  # the plateau, (u - 1/2)/phi
    out = np.where(np.asarray(x) > 0.0, 1.0 - out, out)
    return float(out) if np.isscalar(x) else out


def limit_density_law(model: FsrvModel) -> DensityLaw:
    """Density law of Y: closed for exponential and unit-uniform seeds, by
    convolution otherwise (normal seeds included, though Y is then N(0, 1))."""
    form = limit_form(model)
    closed = {Exponential: pdf_limit_exponential_closed,
              UniformUnit: pdf_limit_uniform_closed}.get(closed_form_tag(model))
    return DensityLaw("limit_law", form, closed, lambda x: pdf_limit_numeric(model, x),
                      lambda: {"a_scale": form.scale, "b_shift": form.shift})


def pdf_sum(n: int, model: FsrvModel, x):
    """Density of the partial sum S_n at x by scaled convolution with
    coefficients a_{n+1} and a_{n+2}-1."""
    return sum_form(model, n).pdf(x)


def pdf_sum_exponential_closed(n: int, x, rate: float = 1.0):
    """Closed-form density of S_n for iid exponential seeds:
    (exp(-x/B) - exp(-x/A)) / (B - A) with A = a_{n+1}, B = a_{n+2}-1
    at unit rate, scaled to other rates; A = B = 2 at n = 2 gives the
    Gamma(2) density x*exp(-x/2)/4."""
    form = sum_form(exponential_model(rate), n)
    return linear_form_pdf_exponential(float(form.c0), float(form.c1), rate * x, rate)


def sum_density_law(n: int, model: FsrvModel) -> DensityLaw:
    """Density law of S_n: closed for exponential seeds of one rate, by
    convolution for every other seed pair."""
    form = sum_form(model, n)
    closed = None
    if closed_form_tag(model) is Exponential:
        closed = lambda x: pdf_sum_exponential_closed(n, x, model.seed0.rate)

    def fields():
        mean, variance = form.moments()
        return {"n": n, "mean": mean, "variance": variance}
    return DensityLaw(f"sum_through_{n}", form, closed, lambda x: pdf_sum(n, model, x), fields)
