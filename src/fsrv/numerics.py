"""Quadrature, scaled density convolution, and certified grid curves.

All analytic modules funnel their integrals through `integrate`: an adaptive
Simpson scheme with an absolute error target, a recursion-depth cap and an
evaluation budget, or, given the knots of a piecewise cubic, one Simpson
panel per piece, which is exact. `scaled_convolution` evaluates the density
of c0*V0 + c1*V1 for independent V0, V1, split at the seeds' kinks, exactly
per piece when both seeds are piecewise linear, and `DensityCurve` samples
a density on a grid next to its normalization certificate.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError

Func = Callable[[float], float]


#: Bisection depth cap of one adaptive panel; a panel still short of its
#: tolerance share there makes the integral raise NonConvergenceError.
_MAX_DEPTH = 60

#: Integrand evaluations one `integrate` call may spend before it raises
#: NonConvergenceError; real work stays below 10^4, but a tolerance finer
#: than doubles resolve would otherwise bisect every panel to _MAX_DEPTH.
_MAX_EVALS = 1 << 20

#: Array elements one vectorized step may hold: knot-mode `integrate` passes
#: at most this many nodes to its integrand at once, and the exact
#: convolution takes as many x values per step as keep its x-by-cut arrays
#: within it, so memory stays flat however many points are asked for.
_CHUNK_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class QuadratureConfig:
    """Error target for adaptive integration: abs_tol is the absolute error
    allowed in one integral. The depth cap, the evaluation budget and the
    seeds' tail cutoff are fixed constants, not settings."""

    abs_tol: float = 1e-9

    def __post_init__(self):
        # a nan tolerance is never met, so every panel would bisect to the cap
        if not 0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")


DEFAULT_CONFIG = QuadratureConfig()


def share_config(cfg: QuadratureConfig, abs_tol: float) -> QuadratureConfig:
    """Config for abs_tol, a share of cfg's error target. A share that
    underflows to 0 cannot be met, so it fails as an exhausted budget does."""
    if abs_tol == 0.0:
        raise NonConvergenceError(f"abs_tol={cfg.abs_tol} is too fine to share out: "
                                  "its share underflows to 0", partial=math.nan)
    return QuadratureConfig(abs_tol)


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def integrate(f: Func, lo: float, hi: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
              knots=None) -> float:
    """Integral of f over [lo, hi].

    Without knots, an adaptive Simpson estimate: absolute error is controlled
    to cfg.abs_tol on smooth integrands; panels whose midpoint is no longer
    representable between the endpoints are accepted as converged (the float
    grid cannot be refined further). If any panel still misses its tolerance
    share at depth _MAX_DEPTH, or the call would spend more than _MAX_EVALS
    integrand evaluations, NonConvergenceError carries the estimate reached
    so far.

    With knots, f must be a polynomial of degree at most 3 on each closed
    piece between consecutive knots (those outside [lo, hi] are ignored), and
    must take an array of nodes; one Simpson panel per piece is then exact,
    and cfg is not consulted.
    """
    if lo > hi:
        raise DomainError(f"integration bounds out of order: [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    if knots is not None:
        return _integrate_pieces(f, lo, hi, np.asarray(knots, dtype=np.float64))

    fa, fm, fb = f(lo), f((lo + hi) / 2.0), f(hi)
    whole = _simpson(fa, fm, fb, hi - lo)
    # stack entries: (a, b, fa, fm, fb, panel_estimate, tol, depth)
    stack = [(lo, hi, fa, fm, fb, whole, cfg.abs_tol, 0)]
    total = 0.0
    evals = 5  # the three above and the first panel's two
    converged = True

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
        # two forced levels guard against the error estimate aliasing to zero
        # on structured integrands
        if abs(err) <= tol and depth >= 2:
            total += s2 + err
        elif depth >= _MAX_DEPTH:
            total += s2 + err
            converged = False
        else:
            # a split commits two evaluations in each half
            evals += 4
            if evals > _MAX_EVALS:
                raise NonConvergenceError(
                    f"quadrature on [{lo}, {hi}] ran out of its budget of {_MAX_EVALS} "
                    f"integrand evaluations before reaching abs_tol={cfg.abs_tol}",
                    partial=total + s2 + err + sum(entry[5] for entry in stack),
                )
            stack.append((a, m, fa, flm, fm, s_left, tol / 2.0, depth + 1))
            stack.append((m, b, fm, frm, fb, s_right, tol / 2.0, depth + 1))

    if not converged:
        raise NonConvergenceError(
            f"quadrature on [{lo}, {hi}] hit depth {_MAX_DEPTH} "
            f"before reaching abs_tol={cfg.abs_tol}",
            partial=total,
        )
    return total


def _integrate_pieces(f, lo: float, hi: float, knots: np.ndarray) -> float:
    """Simpson's rule once per piece of [lo, hi] cut at the knots, with f
    called on chunks of at most _CHUNK_ELEMENTS nodes."""
    edges = np.sort(np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi])))
    edges = edges[np.diff(edges, prepend=-np.inf) > 0]
    nodes = np.empty(2 * edges.size - 1)
    nodes[0::2] = edges
    nodes[1::2] = 0.5 * (edges[:-1] + edges[1:])
    values = np.concatenate([f(nodes[i:i + _CHUNK_ELEMENTS])
                             for i in range(0, nodes.size, _CHUNK_ELEMENTS)])
    panels = np.diff(edges) * (values[:-2:2] + 4.0 * values[1::2] + values[2::2])
    return float(np.sum(panels)) / 6.0


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
    piecewise_linear: bool = False,
):
    """Density of c0*V0 + c1*V1 at x, for independent V0 ~ f0 and V1 ~ f1.

    Evaluates (1/(c0*c1)) * integral of f0((x-t)/c0) * f1(t/c1) dt over the
    intersection of the two induced t-ranges. Supports must be finite;
    callers pass the seeds' effective supports, which drop at most
    seeds.TAIL_MASS of each seed's mass.

    Interior kink locations of either density (breakpoints0/1, in the
    densities' own coordinates) are mapped into t and the integral is split
    there, so each adaptive pass sees a smooth piece. Without the split,
    lattice-kinked integrands such as tabulated-seed products can fool the
    Simpson error estimate.

    With piecewise_linear, both densities are linear between their support
    ends and breakpoints and take arrays. The integrand is then quadratic
    between the images of those nodes, so one Simpson panel per piece is
    exact: x may be a float or an array, and the result has its shape. The
    tolerance is validated as on the adaptive route but not consumed.
    """
    if c0 <= 0 or c1 <= 0:
        raise DomainError(f"scale coefficients must be positive, got {c0}, {c1}")
    s0_lo, s0_hi = support0
    s1_lo, s1_hi = support1
    if not all(map(np.isfinite, (s0_lo, s0_hi, s1_lo, s1_hi))):
        raise DomainError("scaled_convolution needs finite (truncated) supports")
    if piecewise_linear:
        share_config(cfg, cfg.abs_tol / (len(breakpoints0) + len(breakpoints1) + 1))
        nodes0 = np.array((s0_lo, *breakpoints0, s0_hi))
        nodes1 = np.array((s1_lo, *breakpoints1, s1_hi))
        values = _exact_convolution(f0, f1, c0, c1, np.asarray(x, dtype=np.float64),
                                    nodes0, nodes1)
        return float(values) if np.ndim(x) == 0 else values

    t_lo = max(c1 * s1_lo, x - c0 * s0_hi)
    t_hi = min(c1 * s1_hi, x - c0 * s0_lo)
    if t_lo >= t_hi:
        return 0.0

    def integrand(t: float) -> float:
        return f0((x - t) / c0) * f1(t / c1)

    cuts = [x - c0 * b for b in breakpoints0]
    cuts.extend(c1 * b for b in breakpoints1)
    cuts = sorted(c for c in cuts if t_lo < c < t_hi)
    piece_cfg = cfg if not cuts else share_config(cfg, cfg.abs_tol / (len(cuts) + 1))
    total = 0.0
    lo = t_lo
    for cut in cuts:
        if cut - lo > 1e-15 * (abs(cut) + 1.0):
            total += integrate(integrand, lo, cut, piece_cfg)
            lo = cut
    total += integrate(integrand, lo, t_hi, piece_cfg)
    return total / (c0 * c1)


def _exact_convolution(f0, f1, c0: float, c1: float, x: np.ndarray,
                       nodes0: np.ndarray, nodes1: np.ndarray) -> np.ndarray:
    """scaled_convolution for densities linear between sorted nodes (support
    ends included): one Simpson panel per piece of t between the images of
    the nodes, for every x at once, in steps of at most _CHUNK_ELEMENTS."""
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    width = nodes0.size + nodes1.size
    step = max(1, _CHUNK_ELEMENTS // width)
    for start in range(0, flat.size, step):
        xs = flat[start:start + step, None]
        t_lo = np.maximum(c1 * nodes1[0], xs - c0 * nodes0[-1])
        t_hi = np.minimum(c1 * nodes1[-1], xs - c0 * nodes0[0])
        cuts = np.empty((xs.shape[0], width))
        cuts[:, :nodes0.size] = xs - c0 * nodes0
        cuts[:, nodes0.size:] = c1 * nodes1
        # an x outside the support clips every cut to t_hi: no width, no mass
        np.clip(cuts, t_lo, t_hi, out=cuts)
        cuts.sort(axis=1)
        t = np.empty((xs.shape[0], 2 * width - 1))
        t[:, 0::2] = cuts
        t[:, 1::2] = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        # inside [t_lo, t_hi] the seed arguments lie in the supports; the clip
        # only undoes rounding, which could drop the edge value of a density
        # that jumps at its support end
        g = (f0(np.clip((xs - t) / c0, nodes0[0], nodes0[-1]))
             * f1(np.clip(t / c1, nodes1[0], nodes1[-1])))
        panels = np.diff(cuts, axis=1) * (g[:, :-2:2] + 4.0 * g[:, 1::2] + g[:, 2::2])
        out[start:start + step] = np.sum(panels, axis=1) / 6.0
    return (out / (c0 * c1)).reshape(x.shape)


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
        knots=None,
    ) -> "DensityCurve":
        """Sample f on an even grid and certify its normalization over the
        full (truncated) support, independently of the viewing window. With
        knots, f is a piecewise cubic there that takes arrays, and the
        certificate is exact per piece."""
        xs = np.linspace(grid_lo, grid_hi, points)
        ys = np.array([f(float(x)) for x in xs])
        mass = integrate(f, support[0], support[1], cfg, knots=knots)
        return cls(xs=xs, ys=ys, support=support, norm_defect=abs(mass - 1.0), label=label)
