"""The law of the n-th member of a random Fibonacci recursion.

With seeds V0, V1 and Fibonacci coefficients, the n-th member is
a_{n-1}*V0 + a_n*V1. This module holds the algebra of any such linear form
of the seeds, which members, partial sums and the limit law share: its
support, its mean and variance, and its density by scaled convolution. It
also gives the member density in closed form for exponential, unit-uniform,
and standard-normal seeds, modes, maxima, and the golden-ratio diagnostics
of consecutive-index ratios. `DensityLaw` is the common shape of every density
the CLI samples: members here, the limit law and partial sums in `limits`.
"""

import math
from dataclasses import dataclass

from . import fib_core
from .errors import DomainError
from .numerics import DEFAULT_CONFIG, Func, QuadratureConfig, scaled_convolution, integrate
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
    when the seed pair has none), the numeric fallback, and the fields the
    command reports next to the curve."""

    label: str
    support: tuple[float, float]
    closed: Func | None
    numeric: Func
    fields: dict


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
    seeds are independent, and integer coefficients are squared exactly."""
    m0, v0 = model.seed0.moments()
    m1, v1 = model.seed1.moments()
    return float(c0) * m0 + float(c1) * m1, float(c0 * c0) * v0 + float(c1 * c1) * v1


def support_xn(model: FsrvModel, n: int, effective: bool = False) -> tuple[float, float]:
    """Support of member n; with effective=True, infinite seed tails are
    truncated at seeds.TAIL_MASS."""
    _require_member_index(n)
    return linear_form_support(model, fib_core.fib(n - 1), fib_core.fib(n), effective)


def linear_form_pdf(model: FsrvModel, c0: float, c1: float, x: float,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of c0*V0 + c1*V1 at x by scaled convolution of the seed
    densities, split at their kinks, over their effective supports."""
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
    )


def pdf_numeric(model: FsrvModel, n: int, x: float,
                cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of member n at x by scaled convolution of the seed densities."""
    _require_member_index(n)
    return linear_form_pdf(model, float(fib_core.fib(n - 1)), float(fib_core.fib(n)), x, cfg)


def pdf_numeric_joint(joint_pdf, n: int, x: float,
                      bounding_box: tuple[tuple[float, float], tuple[float, float]] | None = None,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Density of member n at x for seeds with joint density joint_pdf(v0, v1).

    The caller must declare a finite bounding box ((v0_lo, v0_hi),
    (v1_lo, v1_hi)) containing the joint support; the density is the
    single integral of joint((x - t)/a_{n-1}, t/a_n) / (a_{n-1} a_n) dt.
    """
    _require_member_index(n)
    if bounding_box is None:
        raise DomainError("pdf_numeric_joint requires a finite bounding box for the joint support")
    (b0_lo, b0_hi), (b1_lo, b1_hi) = bounding_box
    if not all(map(math.isfinite, (b0_lo, b0_hi, b1_lo, b1_hi))):
        raise DomainError("bounding box must be finite")
    c0, c1 = float(fib_core.fib(n - 1)), float(fib_core.fib(n))
    t_lo = max(c1 * b1_lo, x - c0 * b0_hi)
    t_hi = min(c1 * b1_hi, x - c0 * b0_lo)
    if t_lo >= t_hi:
        return 0.0
    return integrate(lambda t: joint_pdf((x - t) / c0, t / c1), t_lo, t_hi, cfg) / (c0 * c1)


def pdf_exponential_closed(n: int, x: float, rate: float = 1.0) -> float:
    """Closed-form density of member n for iid exponential seeds.

    For unit rate this is (exp(-x/a_n) - exp(-x/a_{n-1})) / a_{n-2} when
    n >= 3 and x*exp(-x) at n = 2; other rates enter through the scaling
    rule f_rate(x) = rate * f_1(rate * x).
    """
    _require_member_index(n)
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    if x < 0:
        return 0.0
    y = rate * x
    if n == 2:
        return rate * y * math.exp(-y)
    a_prev = fib_core.fib(n - 1)
    a_n = fib_core.fib(n)
    a_pp = fib_core.fib(n - 2)
    return rate * (math.exp(-y / a_n) - math.exp(-y / a_prev)) / a_pp


def pdf_uniform_closed(n: int, x: float) -> float:
    """Closed-form density of member n for iid unit-uniform seeds: a ramp up
    to a_{n-1}, a plateau at height 1/a_n until a_n, then a ramp down."""
    _require_member_index(n)
    a_prev = fib_core.fib(n - 1)
    a_n = fib_core.fib(n)
    if x < 0.0 or x > a_prev + a_n:
        return 0.0
    if x < a_prev:
        return x / (a_n * a_prev)
    if x <= a_n:
        return 1.0 / a_n
    return (1.0 - (x - a_n) / a_prev) / a_n


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
                      lambda x: pdf_numeric(model, n, x, cfg), {"n": n})


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
