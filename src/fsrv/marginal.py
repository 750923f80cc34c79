"""The law of the n-th member of a random Fibonacci recursion.

With seeds V0, V1 and Fibonacci coefficients, the n-th member is
a_{n-1}*V0 + a_n*V1. Members, partial sums and the limit law are each a
`LinearForm` (c0*V0 + c1*V1 - shift)/scale of the seeds, which gives their
mean and variance, effective support, density by scaled convolution and,
when both seeds are piecewise linear, the knots of that density;
`member_form`, `sum_form` and `limit_form` build the three. Once per family
this module holds the closed density of c0*V0 + c1*V1 for iid exponential
and unit-uniform seeds, which the closed member, partial-sum and limit
densities specialize. It also gives the member density for standard-normal
seeds, modes, maxima, and the golden-ratio diagnostics of consecutive-index
ratios. `DensityLaw` is the common shape of every density the CLI samples:
members here, the limit law and partial sums in `limits`.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import fib_core
from .errors import DomainError
from .numerics import Func, line_points, scaled_convolution
from .seeds import Exponential, SeedDistribution, StandardNormal, UniformUnit


@dataclass(frozen=True)
class FsrvModel:
    """A pair of independent seed distributions driving the recursion."""

    seed0: SeedDistribution
    seed1: SeedDistribution


def exponential_model(rate: float = 1.0) -> FsrvModel:
    return FsrvModel(Exponential(rate), Exponential(rate))


def uniform_model() -> FsrvModel:
    return FsrvModel(UniformUnit(), UniformUnit())


def normal_model() -> FsrvModel:
    return FsrvModel(StandardNormal(), StandardNormal())


def closed_form_tag(model: FsrvModel) -> type[SeedDistribution] | None:
    """The seed class of an iid pair, which keys the closed forms, else None.
    The frozen seed classes compare by value, so exponential seeds pair only
    at one rate; a Tabulated seed compares by identity and keys no closed form."""
    return type(model.seed0) if model.seed0 == model.seed1 else None


@dataclass(frozen=True)
class LinearForm:
    """Z = (c0*V0 + c1*V1 - shift) / scale for the model's seeds V0, V1,
    coefficients c0, c1 >= 0 and scale > 0. Members, partial sums and the
    standardized limit are all such forms; integer coefficients keep their
    moments exact."""

    model: FsrvModel
    c0: float
    c1: float
    shift: float = 0.0
    scale: float = 1.0

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of Z. The seeds' variances add because they are
        independent, and integer coefficients are squared exactly. Raises
        DomainError when either moment of c0*V0 + c1*V1 overflows a double."""
        (m0, v0), (m1, v1) = self.model.seed0.moments(), self.model.seed1.moments()
        c0, c1 = self.c0, self.c1
        mean = float(c0) * m0 + float(c1) * m1
        variance = float(c0 * c0) * v0 + float(c1 * c1) * v1
        if not (math.isfinite(mean) and math.isfinite(variance)):
            raise DomainError(f"moments of {c0}*V0 + {c1}*V1 overflow a double: "
                              f"mean {mean}, variance {variance}")
        return (mean - self.shift) / self.scale, variance / self.scale**2

    def support(self) -> tuple[float, float]:
        """Z's effective support, from the seeds' effective supports
        (infinite tails truncated at seeds.TAIL_MASS)."""
        (lo0, hi0), (lo1, hi1) = (self.model.seed0.effective_support(),
                                  self.model.seed1.effective_support())
        return ((self.c0 * lo0 + self.c1 * lo1 - self.shift) / self.scale,
                (self.c0 * hi0 + self.c1 * hi1 - self.shift) / self.scale)

    def knots(self) -> np.ndarray | None:
        """Sorted knots of Z's density, the images of c0*b0 + c1*b1 over the
        seeds' line_points b0, b1, when both seeds are piecewise linear: the
        density is a cubic between them (the B-spline convolution rule).
        None for other seeds. Knots that coincide up to rounding, as integer
        coefficients on a uniform grid make them, are kept once."""
        s0, s1 = self.model.seed0, self.model.seed1
        if not (s0.piecewise_linear and s1.piecewise_linear):
            return None
        points0, points1 = line_points(s0, s1)
        knots = np.sort((float(self.c0) * points0[:, None] + float(self.c1) * points1).ravel())
        keep = np.diff(knots, prepend=-np.inf) > 1e-12 * (knots[-1] - knots[0])
        return (knots[keep] - self.shift) / self.scale

    def pdf(self, x):
        """Density of Z at x, a float or an array: scale times the density of
        c0*V0 + c1*V1 at scale*x + shift, by scaled convolution of the seed
        pair, which tells it where to cut and whether it is exact (see
        numerics.scaled_convolution)."""
        return self.scale * scaled_convolution(self.model.seed0, self.model.seed1,
                                               float(self.c0), float(self.c1),
                                               self.scale * x + self.shift)

    def standardized(self) -> "LinearForm":
        """The form of zero mean and unit variance over the same seeds and
        coefficients. Raises DomainError when the variance is not positive."""
        mean, variance = LinearForm(self.model, self.c0, self.c1).moments()
        if variance <= 0.0:
            raise DomainError(f"{self.c0}*V0 + {self.c1}*V1 has zero variance "
                              "and no standardized form")
        return LinearForm(self.model, self.c0, self.c1, mean, math.sqrt(variance))


def member_form(model: FsrvModel, n: int) -> LinearForm:
    """Member n = a_{n-1}*V0 + a_n*V1, for n >= 2."""
    if n < 2:
        raise DomainError(f"member index must be >= 2 (indices 0 and 1 are the seeds), got {n}")
    return LinearForm(model, fib_core.fib(n - 1), fib_core.fib(n))


def sum_form(model: FsrvModel, n: int) -> LinearForm:
    """Partial sum S_n of members 0 through n, which collapses exactly to
    a_{n+1}*V0 + (a_{n+2}-1)*V1, for n >= 2."""
    if n < 2:
        raise DomainError(f"sum index must be >= 2, got {n}")
    return LinearForm(model, fib_core.fib(n + 1), fib_core.fib(n + 2) - 1)


def limit_form(model: FsrvModel) -> LinearForm:
    """The limit variable Y, V0 + phi*V1 standardized, which the standardized
    members and partial sums both approach."""
    return LinearForm(model, 1.0, fib_core.PHI).standardized()


@dataclass(frozen=True)
class DensityLaw:
    """One density as a subcommand samples it: the curve label, the linear
    form whose density it is (its support bounds the normalization
    certificate, and its knots, for piecewise-linear seeds, split it), the
    closed form (None when the seed pair has none), the numeric fallback,
    and what builds the fields the command reports next to the curve."""

    label: str
    form: LinearForm
    closed: Func | None
    numeric: Func
    fields: Callable[[], dict]


def pdf_numeric(model: FsrvModel, n: int, x):
    """Density of member n at x by scaled convolution of the seed densities."""
    return member_form(model, n).pdf(x)


def linear_form_pdf_exponential(c0, c1, y, scale: float = 1.0):
    """scale times the density of c0*V0 + c1*V1 at y, elementwise, for iid
    unit-rate exponential seeds and 0 < c0 <= c1: (exp(-y/c1) - exp(-y/c0))
    / (c1 - c0), through expm1 so that it does not cancel for y << c0, or
    the Gamma(2) density y*exp(-y/c0)/c0^2 when c0 == c1. Members and sums
    pass their seed rate as scale, with y = rate*x."""
    # the exponentials overflow for y < 0, where the density is 0 anyway
    pos = np.maximum(y, 0.0)
    if c0 == c1:
        out = scale * pos / float(c0 * c0) * np.exp(-pos / float(c0))
    else:
        out = (scale * np.exp(-pos / float(c1)) * -np.expm1(-pos * ((c1 - c0) / (c0 * c1)))
               / float(c1 - c0))
    return np.where(y > 0.0, out, 0.0)[()]


def linear_form_pdf_uniform(c0, c1, y, scale: float = 1.0):
    """scale times the density of c0*V0 + c1*V1 at y, elementwise, for iid
    unit-uniform seeds and 0 < c0 <= c1: a trapezoid that ramps up to c0,
    stays at 1/c1 until c1 and ramps down to c0 + c1; a triangle when
    c0 == c1."""
    end, ramp = float(c0 + c1), float(c0 * c1)
    return np.select([(y <= 0.0) | (y >= end), y < c0, y <= c1],
                     [0.0, scale * y / ramp, scale / c1],
                     default=scale * (end - y) / ramp)[()]


def pdf_exponential_closed(n: int, x, rate: float = 1.0):
    """Closed-form density of member n for iid exponential seeds.

    For unit rate this is (exp(-x/a_n) - exp(-x/a_{n-1})) / a_{n-2} when
    n >= 3 and x*exp(-x) at n = 2; other rates enter through the scaling
    rule f_rate(x) = rate * f_1(rate * x).
    """
    form = member_form(exponential_model(rate), n)
    return linear_form_pdf_exponential(form.c0, form.c1, rate * x, rate)


def pdf_uniform_closed(n: int, x):
    """Closed-form density of member n for iid unit-uniform seeds: a ramp up
    to a_{n-1}, a plateau at height 1/a_n until a_n, then a ramp down."""
    form = member_form(uniform_model(), n)
    return linear_form_pdf_uniform(form.c0, form.c1, x)


def pdf_normal_closed(n: int, x):
    """Density of member n for iid standard-normal seeds: centered normal
    with variance a_{n-1}^2 + a_n^2 (equal to a_{2n-1})."""
    form = member_form(normal_model(), n)
    variance = float(form.c0 ** 2 + form.c1 ** 2)
    with np.errstate(over="ignore"):  # x*x overflows far out, where the density is 0
        return (np.exp(-0.5 * x * x / variance) / math.sqrt(2.0 * math.pi * variance))[()]


def member_law(model: FsrvModel, n: int) -> DensityLaw:
    """Density law of member n: closed for exponential seeds of one rate,
    unit-uniform and standard-normal seeds, by convolution otherwise."""
    closed = {Exponential: lambda x: pdf_exponential_closed(n, x, model.seed0.rate),
              UniformUnit: lambda x: pdf_uniform_closed(n, x),
              StandardNormal: lambda x: pdf_normal_closed(n, x)}.get(closed_form_tag(model))
    return DensityLaw(f"member_{n}", member_form(model, n), closed,
                      lambda x: pdf_numeric(model, n, x), lambda: {"n": n})


def mode_exponential(n: int, rate: float = 1.0) -> tuple[float, float]:
    """Mode and maximum density of member n for iid exponential seeds, for
    every rate that Exponential accepts.

    For unit rate and n >= 3 the mode is a_{n-1}*a_n*ln(a_n/a_{n-1})/a_{n-2}
    and the maximum is (a_n/a_{n-1})^(-a_n/a_{n-2}) / a_{n-1}; member 2 peaks
    at 1 with density 1/e.
    """
    form = member_form(exponential_model(rate), n)
    if n == 2:
        return 1.0 / rate, rate * math.exp(-1.0)
    a_prev, a_n = form.c0, form.c1
    a_pp = a_n - a_prev
    r = a_n / a_prev
    x_star = a_prev * a_n * math.log(r) / a_pp
    max_density = r ** (-a_n / a_pp) / a_prev
    return x_star / rate, rate * max_density


@dataclass(frozen=True)
class RatioDiagnostics:
    """Consecutive-index ratios that approach the golden ratio (or its square)."""

    n: int
    max_ratio: float
    mode_ratio: float
    mean_ratio: float
    var_ratio: float


def ratio_diagnostics(n_lo: int, n_hi: int) -> list[RatioDiagnostics]:
    """Closed-form diagnostics for iid exponential seeds, one row per index.

    max_ratio = M_n / M_{n+1} and mode_ratio = x*_{n+1} / x*_n tend to the
    golden ratio, as does mean_ratio = a_{n+2}/a_{n+1}; var_ratio =
    a_{2n+1}/a_{2n-1} tends to its square.
    """
    if not 3 <= n_lo <= n_hi <= 90:
        raise DomainError(f"need 3 <= n_lo <= n_hi <= 90, got [{n_lo}, {n_hi}]")
    rows = []
    mode_next, max_next = mode_exponential(n_lo)
    for n in range(n_lo, n_hi + 1):
        # each mode serves two rows: as member n + 1 here and as member n next
        mode_n, max_n = mode_next, max_next
        mode_next, max_next = mode_exponential(n + 1)
        rows.append(
            RatioDiagnostics(
                n=n,
                max_ratio=max_n / max_next,
                mode_ratio=mode_next / mode_n,
                mean_ratio=fib_core.ratio(n + 1, 1),
                var_ratio=fib_core.ratio(2 * n - 1, 2),
            )
        )
    return rows
