"""The law of the n-th member of a random Fibonacci recursion.

With seeds V0, V1 and Fibonacci coefficients, the n-th member is
a_{n-1}*V0 + a_n*V1. This module holds the algebra of any such linear form
of the seeds, which members, partial sums and the limit law share: its
support, its mean and variance, its density by scaled convolution, the
knots of that density when both seeds are piecewise linear, and,
once per family, its closed density for iid exponential and unit-uniform
seeds, which the closed member, partial-sum and limit densities specialize.
It also gives the member density for standard-normal seeds, modes, maxima,
and the golden-ratio diagnostics of consecutive-index ratios. `DensityLaw`
is the common shape of every density the CLI samples: members here, the
limit law and partial sums in `limits`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fib_core
from .errors import DomainError
from .numerics import DEFAULT_CONFIG, Func, QuadratureConfig, scaled_convolution
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


def closed_form_tag(model: FsrvModel) -> str | None:
    """Closed-form family of the model, if one applies."""
    s0, s1 = model.seed0, model.seed1
    if isinstance(s0, Exponential) and isinstance(s1, Exponential) and s0.rate == s1.rate:
        return "exponential"
    if isinstance(s0, UniformUnit) and isinstance(s1, UniformUnit):
        return "uniform"
    if isinstance(s0, StandardNormal) and isinstance(s1, StandardNormal):
        return "normal"
    return None


@dataclass(frozen=True)
class DensityLaw:
    """One density as a subcommand samples it: the curve label, the effective
    support that bounds its normalization certificate, the closed form (None
    when the seed pair has none), the numeric fallback, the fields the
    command reports next to the curve, and, for piecewise-linear seeds, the
    knots between which the numeric density is a cubic (None otherwise)."""

    label: str
    support: tuple[float, float]
    closed: Func | None
    numeric: Func
    fields: dict
    knots: np.ndarray | None = None


def _require_member_index(n: int) -> None:
    if n < 2:
        raise DomainError(
            f"member index must be >= 2 (indices 0 and 1 are the seeds), got {n}"
        )


def linear_form_support(model: FsrvModel, c0, c1,
                        effective: bool = True) -> tuple[float, float]:
    """Support of c0*V0 + c1*V1 for nonnegative c0, c1, from the seeds'
    effective supports (infinite tails truncated at seeds.TAIL_MASS) or,
    with effective=False, their mathematical ones."""
    if effective:
        s0, s1 = model.seed0.effective_support(), model.seed1.effective_support()
    else:
        s0, s1 = model.seed0.support(), model.seed1.support()
    return c0 * s0[0] + c1 * s1[0], c0 * s0[1] + c1 * s1[1]


def linear_form_moments(model: FsrvModel, c0, c1) -> tuple[float, float]:
    """(mean, variance) of c0*V0 + c1*V1; the variances add because the
    seeds are independent, and integer coefficients are squared exactly.
    Raises DomainError when either overflows a double."""
    m0, v0 = model.seed0.moments()
    m1, v1 = model.seed1.moments()
    mean = float(c0) * m0 + float(c1) * m1
    variance = float(c0 * c0) * v0 + float(c1 * c1) * v1
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise DomainError(f"moments of {c0}*V0 + {c1}*V1 overflow a double: "
                          f"mean {mean}, variance {variance}")
    return mean, variance


def seed_nodes(model: FsrvModel) -> tuple[np.ndarray, np.ndarray] | None:
    """The nodes of both seeds, support ends included, when both densities
    are piecewise linear with kinks only there; None otherwise."""
    seeds = (model.seed0, model.seed1)
    if not all(seed.piecewise_linear for seed in seeds):
        return None
    return tuple(np.array((seed.support()[0], *seed.breakpoints(), seed.support()[1]))
                 for seed in seeds)


def linear_form_knots(model: FsrvModel, c0, c1) -> np.ndarray | None:
    """Sorted knots c0*b0 + c1*b1 over all seed nodes b0, b1, between which
    the density of c0*V0 + c1*V1 is a cubic when both seeds are piecewise
    linear (the B-spline convolution rule); None for other seeds. Knots that
    coincide up to rounding, as integer coefficients on a uniform grid make
    them, are kept once."""
    nodes = seed_nodes(model)
    if nodes is None:
        return None
    knots = np.sort((float(c0) * nodes[0][:, None] + float(c1) * nodes[1][None, :]).ravel())
    keep = np.diff(knots, prepend=-np.inf) > 1e-12 * (knots[-1] - knots[0])
    return knots[keep]


def support_xn(model: FsrvModel, n: int, effective: bool = False) -> tuple[float, float]:
    """Support of member n; with effective=True, infinite seed tails are
    truncated at seeds.TAIL_MASS."""
    _require_member_index(n)
    return linear_form_support(model, fib_core.fib(n - 1), fib_core.fib(n), effective)


def linear_form_pdf(model: FsrvModel, c0: float, c1: float, x: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of c0*V0 + c1*V1 at x by scaled convolution of the seed
    densities, split at their kinks, over their effective supports. When
    both seeds are piecewise linear the convolution is exact per piece, and
    x may also be an array."""
    return scaled_convolution(
        model.seed0.pdf,
        model.seed1.pdf,
        c0,
        c1,
        x,
        cfg,
        support0=model.seed0.effective_support(),
        support1=model.seed1.effective_support(),
        breakpoints0=model.seed0.breakpoints(),
        breakpoints1=model.seed1.breakpoints(),
        piecewise_linear=model.seed0.piecewise_linear and model.seed1.piecewise_linear,
    )


def pdf_numeric(model: FsrvModel, n: int, x: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of member n at x by scaled convolution of the seed densities."""
    _require_member_index(n)
    return linear_form_pdf(model, float(fib_core.fib(n - 1)), float(fib_core.fib(n)), x, cfg)


def linear_form_pdf_exponential(c0, c1, y: float, scale: float = 1.0) -> float:
    """scale times the density of c0*V0 + c1*V1 at y for iid unit-rate
    exponential seeds and 0 < c0 <= c1: (exp(-y/c1) - exp(-y/c0)) / (c1 - c0),
    or the Gamma(2) density y*exp(-y/c0)/c0^2 when c0 == c1. Members and
    sums pass their seed rate as scale, with y = rate*x."""
    if not scale > 0:
        raise DomainError(f"rate must be positive, got {scale}")
    if y <= 0.0:
        return 0.0
    if c0 == c1:
        return scale * y / (c0 * c0) * math.exp(-y / c0)
    return scale * (math.exp(-y / c1) - math.exp(-y / c0)) / (c1 - c0)


def linear_form_pdf_uniform(c0, c1, y: float, scale: float = 1.0) -> float:
    """scale times the density of c0*V0 + c1*V1 at y for iid unit-uniform
    seeds and 0 < c0 <= c1: a trapezoid that ramps up to c0, stays at 1/c1
    until c1 and ramps down to c0 + c1; a triangle when c0 == c1."""
    if y <= 0.0 or y >= c0 + c1:
        return 0.0
    if y < c0:
        return scale * y / (c0 * c1)
    if y <= c1:
        return scale / c1
    return scale * (c0 + c1 - y) / (c0 * c1)


def pdf_exponential_closed(n: int, x: float, rate: float = 1.0) -> float:
    """Closed-form density of member n for iid exponential seeds.

    For unit rate this is (exp(-x/a_n) - exp(-x/a_{n-1})) / a_{n-2} when
    n >= 3 and x*exp(-x) at n = 2; other rates enter through the scaling
    rule f_rate(x) = rate * f_1(rate * x).
    """
    _require_member_index(n)
    return linear_form_pdf_exponential(fib_core.fib(n - 1), fib_core.fib(n), rate * x, rate)


def pdf_uniform_closed(n: int, x: float) -> float:
    """Closed-form density of member n for iid unit-uniform seeds: a ramp up
    to a_{n-1}, a plateau at height 1/a_n until a_n, then a ramp down."""
    _require_member_index(n)
    return linear_form_pdf_uniform(fib_core.fib(n - 1), fib_core.fib(n), x)


def pdf_normal_closed(n: int, x: float) -> float:
    """Density of member n for iid standard-normal seeds: centered normal
    with variance a_{n-1}^2 + a_n^2 (equal to a_{2n-1})."""
    _require_member_index(n)
    variance = float(fib_core.fib(n - 1) ** 2 + fib_core.fib(n) ** 2)
    return math.exp(-0.5 * x * x / variance) / math.sqrt(2.0 * math.pi * variance)


def member_law(model: FsrvModel, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> DensityLaw:
    """Density law of member n: closed for exponential seeds of one rate,
    unit-uniform and standard-normal seeds, by convolution otherwise."""
    support = support_xn(model, n, True)
    knots = linear_form_knots(model, fib_core.fib(n - 1), fib_core.fib(n))
    tag = closed_form_tag(model)
    if tag == "exponential":
        rate = model.seed0.rate
        closed = lambda x: pdf_exponential_closed(n, x, rate)
    elif tag == "uniform":
        closed = lambda x: pdf_uniform_closed(n, x)
    elif tag == "normal":
        closed = lambda x: pdf_normal_closed(n, x)
    else:
        closed = None
    return DensityLaw(f"member_{n}", support, closed,
                      lambda x: pdf_numeric(model, n, x, cfg), {"n": n}, knots)


def moments_xn(model: FsrvModel, n: int) -> tuple[float, float]:
    """(mean, variance) of member n = a_{n-1}*V0 + a_n*V1."""
    _require_member_index(n)
    return linear_form_moments(model, fib_core.fib(n - 1), fib_core.fib(n))


def mode_exponential(n: int, rate: float = 1.0) -> tuple[float, float]:
    """Mode and maximum density of member n for iid exponential seeds.

    For unit rate and n >= 3 the mode is a_{n-1}*a_n*ln(a_n/a_{n-1})/a_{n-2}
    and the maximum is (a_n/a_{n-1})^(-a_n/a_{n-2}) / a_{n-1}; member 2 peaks
    at 1 with density 1/e.
    """
    _require_member_index(n)
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    if n == 2:
        return 1.0 / rate, rate * math.exp(-1.0)
    a_prev = fib_core.fib(n - 1)
    a_n = fib_core.fib(n)
    a_pp = fib_core.fib(n - 2)
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

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "max_ratio": self.max_ratio,
            "mode_ratio": self.mode_ratio,
            "mean_ratio": self.mean_ratio,
            "var_ratio": self.var_ratio,
        }


def ratio_diagnostics(n_lo: int, n_hi: int) -> list[RatioDiagnostics]:
    """Closed-form diagnostics for iid exponential seeds, one row per index.

    max_ratio = M_n / M_{n+1} and mode_ratio = x*_{n+1} / x*_n tend to the
    golden ratio, as does mean_ratio = a_{n+2}/a_{n+1}; var_ratio =
    a_{2n+1}/a_{2n-1} tends to its square.
    """
    if not 3 <= n_lo <= n_hi <= 90:
        raise DomainError(f"need 3 <= n_lo <= n_hi <= 90, got [{n_lo}, {n_hi}]")
    rows = []
    for n in range(n_lo, n_hi + 1):
        mode_n, max_n = mode_exponential(n)
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
