"""Limit law of the standardized sequence, and partial sums.

Standardizing member n yields (V0 + r_n*V1 - mean)/sd with r_n the ratio of
consecutive Fibonacci numbers; as n grows this converges, for every outcome,
to Y = (V0 + phi*V1 - (mean0 + phi*mean1)) / sqrt(var0 + phi^2*var1). The
same Y is the limit of the standardized partial sums S_n = sum of members 0
through n, which collapse exactly to a_{n+1}*V0 + (a_{n+2}-1)*V1. Both
densities come from the linear-form kernel of `marginal`, and
`limit_density_law` and `sum_density_law` package them for the CLI.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fib_core
from .errors import DomainError
from .fib_core import PHI
from .marginal import (DensityLaw, FsrvModel, closed_form_tag, linear_form_knots,
                       linear_form_moments, linear_form_pdf, linear_form_pdf_exponential,
                       linear_form_pdf_uniform, linear_form_support)
from .numerics import DEFAULT_CONFIG, QuadratureConfig

_SQRT_1_PHI2 = math.sqrt(1.0 + PHI * PHI)


@dataclass(frozen=True)
class LimitLaw:
    """Affine standardization constants of the limit variable Y."""

    model: FsrvModel
    a_scale: float
    b_shift: float


def limit_law(model: FsrvModel) -> LimitLaw:
    mean, variance = linear_form_moments(model, 1.0, PHI)
    a_scale = math.sqrt(variance)
    if a_scale <= 0.0:
        raise DomainError("limit law undefined: both seeds are degenerate (zero variance)")
    return LimitLaw(model=model, a_scale=a_scale, b_shift=mean)


def pdf_limit_numeric(law: LimitLaw, x: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of Y at x: the density of V0 + phi*V1 evaluated at
    a_scale*x + b_shift and rescaled by a_scale, with the inner density
    obtained by scaled convolution (x may be an array when both seeds are
    piecewise linear)."""
    return law.a_scale * linear_form_pdf(law.model, 1.0, PHI, law.a_scale * x + law.b_shift, cfg)


def pdf_limit_exponential_closed(x: float) -> float:
    """Closed-form density of Y for iid exponential seeds: the density of
    V0 + phi*V1 at c = x*sqrt(1+phi^2) + (1+phi), rescaled by sqrt(1+phi^2).
    Standardization makes the result rate-free."""
    return linear_form_pdf_exponential(1.0, PHI, x * _SQRT_1_PHI2 + (1.0 + PHI), _SQRT_1_PHI2)


def cdf_limit_exponential_closed(x):
    """Distribution function matching pdf_limit_exponential_closed.

    Accepts a float or an array; obtained by integrating the closed density,
    F = (phi*(1 - exp(-c/phi)) - (1 - exp(-c))) / (phi - 1) for c >= 0.
    """
    c = np.maximum(np.asarray(x, dtype=np.float64) * _SQRT_1_PHI2 + (1.0 + PHI), 0.0)
    out = (PHI * -np.expm1(-c / PHI) + np.expm1(-c)) / (PHI - 1.0)
    return float(out) if np.isscalar(x) else out


_UNIFORM_A = math.sqrt((1.0 + PHI * PHI) / 12.0)
_UNIFORM_B = (1.0 + PHI) / 2.0


def pdf_limit_uniform_closed(x: float) -> float:
    """Closed-form density of Y for iid unit-uniform seeds: the trapezoidal
    density of V0 + phi*V1 pushed through the standardization."""
    return linear_form_pdf_uniform(1.0, PHI, _UNIFORM_A * x + _UNIFORM_B, _UNIFORM_A)


def cdf_limit_uniform_closed(x):
    """Distribution function of Y for iid unit-uniform seeds.

    Computed as the exact integral of the trapezoidal density, so it is
    continuous and hits 0 and 1 exactly at the support edges. Accepts a
    float or an array.
    """
    u = np.asarray(_UNIFORM_A * np.asarray(x, dtype=np.float64) + _UNIFORM_B)
    rising = u * u / (2.0 * PHI)
    flat = 1.0 / (2.0 * PHI) + (u - 1.0) / PHI
    falling = 1.0 - (1.0 + PHI - u) ** 2 / (2.0 * PHI)
    out = np.select(
        [u <= 0.0, u < 1.0, u <= PHI, u < 1.0 + PHI],
        [0.0, rising, flat, falling],
        default=1.0,
    )
    return float(out) if np.isscalar(x) else out


def limit_density_law(model: FsrvModel, cfg: QuadratureConfig = DEFAULT_CONFIG) -> DensityLaw:
    """Density law of Y: closed for exponential and unit-uniform seeds, by
    convolution otherwise (normal seeds included, though Y is then N(0, 1))."""
    law = limit_law(model)
    lo, hi = linear_form_support(model, 1.0, PHI)
    support = ((lo - law.b_shift) / law.a_scale, (hi - law.b_shift) / law.a_scale)
    closed = {"exponential": pdf_limit_exponential_closed,
              "uniform": pdf_limit_uniform_closed}.get(closed_form_tag(model))
    knots = linear_form_knots(model, 1.0, PHI)
    if knots is not None:
        knots = (knots - law.b_shift) / law.a_scale
    return DensityLaw("limit_law", support, closed, lambda x: pdf_limit_numeric(law, x, cfg),
                      {"a_scale": law.a_scale, "b_shift": law.b_shift}, knots)


@dataclass(frozen=True)
class SumLaw:
    """Exact linear reduction of the partial sum S_n and its moments."""

    n: int
    coeff0: int
    coeff1: int
    mean: float
    variance: float


def _sum_coefficients(n: int) -> tuple[int, int]:
    """(a_{n+1}, a_{n+2}-1), the exact coefficients of V0 and V1 in S_n."""
    if n < 2:
        raise DomainError(f"sum index must be >= 2, got {n}")
    return fib_core.fib(n + 1), fib_core.fib(n + 2) - 1


def sum_law(n: int, model: FsrvModel) -> SumLaw:
    """Coefficients and moments of S_n = a_{n+1}*V0 + (a_{n+2}-1)*V1."""
    c0, c1 = _sum_coefficients(n)
    mean, variance = linear_form_moments(model, c0, c1)
    return SumLaw(n=n, coeff0=c0, coeff1=c1, mean=mean, variance=variance)


def pdf_sum(n: int, model: FsrvModel, x: float,
            cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of the partial sum S_n at x by scaled convolution with
    coefficients a_{n+1} and a_{n+2}-1."""
    c0, c1 = _sum_coefficients(n)
    return linear_form_pdf(model, float(c0), float(c1), x, cfg)


def pdf_sum_exponential_closed(n: int, x: float, rate: float = 1.0) -> float:
    """Closed-form density of S_n for iid exponential seeds:
    (exp(-x/B) - exp(-x/A)) / (B - A) with A = a_{n+1}, B = a_{n+2}-1
    at unit rate, scaled to other rates; A = B = 2 at n = 2 gives the
    Gamma(2) density x*exp(-x/2)/4."""
    c0, c1 = _sum_coefficients(n)
    return linear_form_pdf_exponential(float(c0), float(c1), rate * x, rate)


def sum_density_law(n: int, model: FsrvModel,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> DensityLaw:
    """Density law of S_n: closed for exponential seeds of one rate, by
    convolution for every other seed pair."""
    law = sum_law(n, model)
    support = linear_form_support(model, law.coeff0, law.coeff1)
    closed = None
    if closed_form_tag(model) == "exponential":
        rate = model.seed0.rate
        closed = lambda x: pdf_sum_exponential_closed(n, x, rate)
    return DensityLaw(f"sum_through_{n}", support, closed, lambda x: pdf_sum(n, model, x, cfg),
                      {"n": n, "mean": law.mean, "variance": law.variance},
                      linear_form_knots(model, law.coeff0, law.coeff1))


def normalized_sum_law(n: int, model: FsrvModel) -> tuple[float, float]:
    """(mean, standard deviation) standardizing S_n; the standardized sum
    converges in law to the same limit variable Y as the standardized
    sequence members."""
    law = sum_law(n, model)
    if law.variance <= 0.0:
        raise DomainError("normalized sum undefined: zero variance")
    return law.mean, math.sqrt(law.variance)
