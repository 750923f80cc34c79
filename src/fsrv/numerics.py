"""Quadrature, scaled density convolution, grid curves, and 1-D maximization.

All analytic modules funnel their integrals through `integrate`, an adaptive
Simpson scheme with an absolute error target and a recursion-depth cap.
`scaled_convolution` evaluates the density of c0*V0 + c1*V1 for independent
V0, V1; `argmax_scalar` is a golden-section search with an explicit tie-break
for plateau-topped densities.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError

Func = Callable[[float], float]


@dataclass(frozen=True)
class QuadratureConfig:
    """Error-control knobs for adaptive integration.

    abs_tol: absolute error target for one integral.
    max_depth: bisection depth cap; exceeding it raises NonConvergenceError.
    tail_mass_cutoff: probability mass a caller may discard when truncating
        an infinite support to a finite integration window.
    """

    abs_tol: float = 1e-9
    max_depth: int = 60
    tail_mass_cutoff: float = 1e-12

    def __post_init__(self):
        # a nan tolerance is never met, so every panel would bisect to max_depth
        if not 0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not 0 < self.tail_mass_cutoff < math.inf:
            raise DomainError(
                f"tail_mass_cutoff must be positive and finite, got {self.tail_mass_cutoff}"
            )


DEFAULT_CONFIG = QuadratureConfig()


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def integrate(f: Func, lo: float, hi: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Adaptive Simpson estimate of the integral of f over [lo, hi].

    Absolute error is controlled to cfg.abs_tol on smooth integrands; panels
    whose midpoint is no longer representable between the endpoints are
    accepted as converged (the float grid cannot be refined further). If any
    panel still misses its tolerance share at cfg.max_depth, the whole
    integral is flagged and NonConvergenceError carries the partial estimate.
    """
    if lo > hi:
        raise DomainError(f"integration bounds out of order: [{lo}, {hi}]")
    if lo == hi:
        return 0.0

    fa, fm, fb = f(lo), f((lo + hi) / 2.0), f(hi)
    whole = _simpson(fa, fm, fb, hi - lo)
    # stack entries: (a, b, fa, fm, fb, panel_estimate, tol, depth)
    stack = [(lo, hi, fa, fm, fb, whole, cfg.abs_tol, 0)]
    total = 0.0
    converged = True
    # a couple of forced levels guard against the error estimate aliasing
    # to zero on structured integrands
    min_depth = min(2, cfg.max_depth)

    while stack:
        a, b, fa, fm, fb, s_whole, tol, depth = stack.pop()
        m = (a + b) / 2.0
        lm = (a + m) / 2.0
        rm = (m + b) / 2.0
        if not (a < lm < m < rm < b):
            total += s_whole
            continue
        flm, frm = f(lm), f(rm)
        s_left = _simpson(fa, flm, fm, m - a)
        s_right = _simpson(fm, frm, fb, b - m)
        s2 = s_left + s_right
        err = (s2 - s_whole) / 15.0
        if abs(err) <= tol and depth >= min_depth:
            total += s2 + err
        elif depth >= cfg.max_depth:
            total += s2 + err
            converged = False
        else:
            stack.append((a, m, fa, flm, fm, s_left, tol / 2.0, depth + 1))
            stack.append((m, b, fm, frm, fb, s_right, tol / 2.0, depth + 1))

    if not converged:
        raise NonConvergenceError(
            f"quadrature on [{lo}, {hi}] hit max_depth={cfg.max_depth} "
            f"before reaching abs_tol={cfg.abs_tol}",
            partial=total,
        )
    return total


def scaled_convolution(
    f0: Func,
    f1: Func,
    c0: float,
    c1: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    support0: tuple[float, float] = (-np.inf, np.inf),
    support1: tuple[float, float] = (-np.inf, np.inf),
    breakpoints0=(),
    breakpoints1=(),
) -> float:
    """Density of c0*V0 + c1*V1 at x, for independent V0 ~ f0 and V1 ~ f1.

    Evaluates (1/(c0*c1)) * integral of f0((x-t)/c0) * f1(t/c1) dt over the
    intersection of the two induced t-ranges. Supports must be finite;
    callers truncate infinite tails so the discarded mass stays below
    cfg.tail_mass_cutoff.

    Interior kink locations of either density (breakpoints0/1, in the
    densities' own coordinates) are mapped into t and the integral is split
    there, so each adaptive pass sees a smooth piece. Without the split,
    lattice-kinked integrands such as tabulated-seed products can fool the
    Simpson error estimate.
    """
    if c0 <= 0 or c1 <= 0:
        raise DomainError(f"scale coefficients must be positive, got {c0}, {c1}")
    s0_lo, s0_hi = support0
    s1_lo, s1_hi = support1
    if not all(map(np.isfinite, (s0_lo, s0_hi, s1_lo, s1_hi))):
        raise DomainError("scaled_convolution needs finite (truncated) supports")

    t_lo = max(c1 * s1_lo, x - c0 * s0_hi)
    t_hi = min(c1 * s1_hi, x - c0 * s0_lo)
    if t_lo >= t_hi:
        return 0.0

    def integrand(t: float) -> float:
        return f0((x - t) / c0) * f1(t / c1)

    cuts = [x - c0 * b for b in breakpoints0]
    cuts.extend(c1 * b for b in breakpoints1)
    cuts = sorted(c for c in cuts if t_lo < c < t_hi)
    piece_cfg = cfg if not cuts else QuadratureConfig(
        abs_tol=cfg.abs_tol / (len(cuts) + 1),
        max_depth=cfg.max_depth,
        tail_mass_cutoff=cfg.tail_mass_cutoff,
    )
    total = 0.0
    lo = t_lo
    for cut in cuts:
        if cut - lo > 1e-15 * (abs(cut) + 1.0):
            total += integrate(integrand, lo, cut, piece_cfg)
            lo = cut
    total += integrate(integrand, lo, t_hi, piece_cfg)
    return total / (c0 * c1)


_INV_PHI = (5.0**0.5 - 1.0) / 2.0


def argmax_scalar(f: Func, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Locate the maximizer of a unimodal f on [lo, hi] by golden-section search.

    Returns (x_star, f(x_star)) with x_star within tol of the maximizer.
    Flat-topped functions are handled by a tie-break: when the converged
    point sits on a plateau (equal values at x_star +/- tol), the plateau
    edges are located by bisection and the midpoint is returned.
    """
    if lo >= hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc == fd:
            # both probes on a flat stretch: the max is bracketed between them
            a, b = c, d
            c = b - _INV_PHI * (b - a)
            d = a + _INV_PHI * (b - a)
            fc, fd = f(c), f(d)
        elif fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)

    x0 = (a + b) / 2.0
    f0 = f(x0)

    left_probe = max(lo, x0 - tol)
    right_probe = min(hi, x0 + tol)
    if f(left_probe) == f0 == f(right_probe):
        left = _plateau_edge(f, f0, x0, lo, tol)
        right = _plateau_edge(f, f0, x0, hi, tol)
        x_star = (left + right) / 2.0
        return x_star, f(x_star)
    x1 = _parabolic_polish(f, x0, lo, hi)
    return x1, f(x1)


def _parabolic_polish(f: Func, x0: float, lo: float, hi: float) -> float:
    """One quadratic-fit vertex step around x0.

    Function values only locate a smooth maximum to about sqrt(eps) of the
    curvature scale; fitting a parabola through three points a cube-root-eps
    step apart recovers the vertex to near machine precision.
    """
    h = 6e-6 * max(abs(x0), 1.0)
    xl, xr = x0 - h, x0 + h
    if xl <= lo or xr >= hi:
        return x0
    fl, fc, fr = f(xl), f(x0), f(xr)
    curvature = fr - 2.0 * fc + fl
    if not curvature < 0.0:
        return x0
    step = 0.5 * h * (fl - fr) / curvature
    if abs(step) > h:
        return x0
    return x0 + step


def _plateau_edge(f: Func, level: float, inside: float, outside: float, tol: float) -> float:
    """Bisect for the boundary of {x: f(x) == level} between a point on the
    plateau and one end of the search interval."""
    if f(outside) == level:
        return outside
    good, bad = inside, outside
    while abs(good - bad) > tol:
        mid = (good + bad) / 2.0
        if f(mid) == level:
            good = mid
        else:
            bad = mid
    return (good + bad) / 2.0


@dataclass
class DensityCurve:
    """A univariate density sampled on a grid, with support metadata and a
    normalization certificate (norm_defect = |integral - 1|)."""

    xs: np.ndarray
    ys: np.ndarray
    support: tuple[float, float]
    norm_defect: float
    label: str = field(default="density")

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.float64)
        if self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise DomainError("xs and ys must be 1-D arrays of equal length")
        if self.xs.size < 2:
            raise DomainError("a density curve needs at least 2 grid points")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.diff(self.xs) > 0)):
            raise DomainError("grid must be finite and strictly increasing")
        if np.any(self.ys < 0):
            raise DomainError("density values must be nonnegative")

    @classmethod
    def from_function(
        cls,
        f: Func,
        grid_lo: float,
        grid_hi: float,
        points: int,
        support: tuple[float, float],
        cfg: QuadratureConfig = DEFAULT_CONFIG,
        label: str = "density",
    ) -> "DensityCurve":
        """Sample f on an even grid and certify its normalization over the
        full (truncated) support, independently of the viewing window."""
        xs = np.linspace(grid_lo, grid_hi, points)
        ys = np.array([f(float(x)) for x in xs])
        mass = integrate(f, support[0], support[1], cfg)
        return cls(xs=xs, ys=ys, support=support, norm_defect=abs(mass - 1.0), label=label)
