"""Quadrature, scaled density convolution, and certified grid curves.

Every integral goes through one engine, `_integrate_rows`, which integrates
a batch of rows, each cut at its own sorted edges, calling the integrand on
arrays of at most _CHUNK_ELEMENTS nodes: exactly, one Simpson panel per
piece, or adaptively, with Gauss-Kronrod 7/15 panels, bisecting those whose
error estimate |K15 - G7| misses their share of an absolute error target.
Adaptive panels never evaluate their ends, so a piece must be continuous;
the engine's callers cut every row at its known jumps and kinks.
`integrate` is its one-row front end, `scaled_convolution` the density of
c0*V0 + c1*V1 for independent V0, V1 with one row per x, and `DensityCurve`
a density sampled on a grid next to its normalization certificate.
Densities take arrays of points.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NonConvergenceError

Func = Callable[[np.ndarray], np.ndarray]


#: Bisection depth cap of one adaptive panel; a panel still short of its
#: tolerance share there makes the integral raise NonConvergenceError.
_MAX_DEPTH = 60

#: Integrand evaluations one adaptive piece may spend, 15 per panel, before
#: it raises NonConvergenceError; a smooth piece takes a few hundred, but a
#: tolerance finer than doubles resolve would otherwise bisect every panel to
#: _MAX_DEPTH.
_MAX_EVALS = 1 << 20

#: Gauss-Kronrod 7/15 panel on [-1, 1] (Piessens et al., QUADPACK, 1983,
#: qk15): the 15 Kronrod nodes in increasing order and their weights, and the
#: weights of the 7-point Gauss rule on every second node. QUADPACK lists
#: each from the outer node in to the centre; the other half mirrors it.
#: |K15 - G7| is the panel's error estimate.
_XK, _WK, _WG = (np.concatenate((sign * np.array(half[:-1]), half[::-1])) for sign, half in (
    (-1.0, (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245, 0.0)),
    (1.0, (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
           0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
           0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
           0.204432940075298892414161999234649, 0.209482141084727828012999174891714)),
    (1.0, (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
           0.381830050505118944950369775488975, 0.417959183673469387755102040816327))))

#: Nodes one integrand call may receive, so memory stays flat however many
#: points are asked for.
_CHUNK_ELEMENTS = 1 << 12

#: Panels adaptive mode bisects per step, and pieces it takes at once: they
#: bound the memory its pending and accepted panels hold.
_BLOCK_PANELS = 1 << 9
_ADAPTIVE_PIECES = 1 << 7


@dataclass(frozen=True)
class QuadratureConfig:
    """Error target for adaptive integration: abs_tol is the absolute error
    allowed in one integral, as estimated by its Gauss-Kronrod panels'
    |K15 - G7|; on smooth integrands that overstates the error of the K15
    they contribute. The estimate sees an integrand only at the panels'
    interior nodes, so it cannot see a jump that no cut marks. The depth
    cap, the evaluation budget and the seeds' tail cutoff are fixed
    constants, not settings."""

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


def _evaluate(f, t: np.ndarray, row: np.ndarray) -> np.ndarray:
    """f(t, row) for nodes t and rows that broadcast, split flat into calls of
    at most _CHUNK_ELEMENTS nodes when larger; never on no nodes."""
    if t.size <= _CHUNK_ELEMENTS:
        return f(t, row) if t.size else np.empty(0)
    t, row = t.ravel(), np.broadcast_to(row, t.shape).ravel()
    return np.concatenate([f(t[i:i + _CHUNK_ELEMENTS], row[i:i + _CHUNK_ELEMENTS])
                           for i in range(0, t.size, _CHUNK_ELEMENTS)])


def _integrate_rows(f, rows: int, edges, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Integral of f over [e[i, 0], e[i, -1]] for each row i < rows, where
    e = edges(i, j) is the 2-D array of the sorted edges of rows i to j - 1,
    asked for a few rows at a time; f(t, row) takes nodes and the rows they
    belong to, which broadcast. Without cfg (exact mode), one Simpson panel
    per piece between consecutive edges. With cfg (adaptive mode), each
    piece of positive width is bisected into Gauss-Kronrod 7/15 panels, with
    cfg.abs_tol shared equally over the row's pieces and halved at each
    bisection: a panel contributes its K15 and is accepted once |K15 - G7|
    meets its share, after one forced bisection, or once its midpoint is no
    longer representable. The 15 nodes lie inside the panel, so f must be
    continuous within each piece. A piece still short at depth _MAX_DEPTH,
    or that would spend more than _MAX_EVALS integrand evaluations, raises
    NonConvergenceError carrying the estimate so far. The nodes and each
    piece's sum are those of a depth-first recursion that adds its panels
    from left to right, whatever rows share the batch.
    """
    width = edges(0, 0).shape[1]
    out = np.empty(rows)
    step = max(1, _ADAPTIVE_PIECES // (width - 1) if cfg else _CHUNK_ELEMENTS // (2 * width - 1))
    for i in range(0, rows, step):
        cuts = edges(i, i + step)
        if cfg:
            out[i:i + step] = _adaptive_rows(f, cuts, i, cfg)
            continue
        t = np.empty((cuts.shape[0], 2 * width - 1))
        t[:, 0::2] = cuts
        t[:, 1::2] = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
        g = _evaluate(f, t, np.arange(i, i + len(t))[:, None]).reshape(t.shape)
        panels = np.diff(cuts, axis=1) * (g[:, :-2:2] + 4.0 * g[:, 1::2] + g[:, 2::2])
        out[i:i + step] = np.sum(panels, axis=1) / 6.0
    return out


def _adaptive_rows(f, edges: np.ndarray, start: int, cfg: QuadratureConfig) -> np.ndarray:
    """Adaptive mode of _integrate_rows for the rows start, start + 1, ..."""
    rows = len(edges)
    owner, col = np.nonzero(edges[:, :-1] < edges[:, 1:])  # the pieces of positive width
    lo, hi = edges[owner, col], edges[owner, col + 1]
    share = cfg.abs_tol / np.bincount(owner, minlength=rows)[owner]
    share_config(cfg, share.min(initial=cfg.abs_tol))  # raises if a share underflowed
    row, pieces = start + owner, lo.size
    # a block holds panels of one depth that failed their tolerance share,
    # one per column, in the rows a, b, piece and K15 estimate; each piece
    # starts as one such panel, never evaluated, as its first bisection is
    # forced to guard against G7 and K15 agreeing by chance
    stack = [(0, np.array((lo, hi, np.arange(pieces), np.zeros(pieces))))]
    accepted = [np.empty((3, 0))]  # piece, a and K15 of accepted panels
    evals = np.zeros(pieces, dtype=np.int64)
    capped = np.zeros(pieces, dtype=bool)

    while stack:
        depth, block = stack.pop()
        p = block[2].astype(np.intp)
        evals += 2 * _XK.size * np.bincount(p, minlength=pieces)
        if np.any(evals > _MAX_EVALS):
            # the accepted and failed panels of a piece tile it
            q = np.argmax(evals > _MAX_EVALS)
            partial = (sum(float(np.sum(v[pp == q])) for pp, _, v in accepted)
                       + sum(float(np.sum(blk[3, blk[2] == q])) for _, blk in stack)
                       + float(np.sum(block[3, p == q])))
            raise NonConvergenceError(
                f"quadrature on [{lo[q]}, {hi[q]}] ran out of its budget of {_MAX_EVALS} "
                f"integrand evaluations before reaching abs_tol={share[q]}", partial=partial)
        depth += 1  # of the halves
        a, b = block[0], block[1]
        m = (a + b) / 2.0
        # each left half next to its right half keeps the panels in piece
        # order, and the leftmost block on top runs the first pieces first
        a, b = np.stack((a, m), axis=1).ravel(), np.stack((m, b), axis=1).ravel()
        p = np.repeat(p, 2)
        tol = np.ldexp(share[p], -depth)  # the share, halved at each bisection
        c, h = (a + b) / 2.0, (b - a) / 2.0
        t = c[:, None] + h[:, None] * _XK
        g = _evaluate(f, t, row[p][:, None]).reshape(t.shape)
        # a sum along each panel's own nodes, in an order no batch width changes
        kronrod = h * np.sum(g * _WK, axis=1)
        gauss = h * np.sum(g[:, 1::2] * _WG, axis=1)
        done = (np.abs(kronrod - gauss) <= tol) | ~((a < c) & (c < b))
        if depth >= _MAX_DEPTH:
            capped[p[~done]] = True
            done[:] = True
        accepted.append(np.array((p, a, kronrod))[:, done])
        failed = np.array((a, b, p, kronrod))[:, ~done]
        for i in reversed(range(0, failed.shape[1], _BLOCK_PANELS)):
            stack.append((depth, failed[:, i:i + _BLOCK_PANELS]))

    accepted = np.concatenate(accepted, axis=1)
    order = np.lexsort(accepted[1::-1])
    # bincount adds its weights in order, as a depth-first running total would
    totals = np.bincount(accepted[0, order].astype(np.intp), weights=accepted[2, order],
                         minlength=pieces)
    if capped.any():
        q = np.argmax(capped)
        raise NonConvergenceError(f"quadrature on [{lo[q]}, {hi[q]}] hit depth {_MAX_DEPTH} "
                                  f"before reaching abs_tol={share[q]}", partial=float(totals[q]))
    return np.bincount(owner, weights=totals, minlength=rows)


def integrate(f: Func, lo: float, hi: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
              knots=None) -> float:
    """Integral of f over [lo, hi]; f takes an array of nodes.

    Without knots, adaptive to cfg.abs_tol with Gauss-Kronrod panels (see
    _integrate_rows), which never evaluate f at lo, hi or any other panel
    end: f must be continuous on (lo, hi), since a jump between two nodes
    goes unseen. With knots, f must be a polynomial of degree at most 3 on
    each closed piece between consecutive knots (those outside [lo, hi] are
    ignored); one Simpson panel per piece is then exact, and cfg is not
    consulted.
    """
    if lo > hi:
        raise DomainError(f"integration bounds out of order: [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    if knots is None:
        edges = np.array([[lo, hi]], dtype=np.float64)
    else:
        knots = np.asarray(knots, dtype=np.float64)
        edges = np.sort(np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi])))
        edges, cfg = edges[None, np.diff(edges, prepend=-np.inf) > 0], None
    return float(_integrate_rows(lambda t, row: f(t.ravel()), 1, lambda i, j: edges[i:j], cfg)[0])


def scaled_convolution(
    f0: Func,
    f1: Func,
    c0: float,
    c1: float,
    x,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    support0: tuple[float, float] = (-np.inf, np.inf),
    support1: tuple[float, float] = (-np.inf, np.inf),
    breakpoints0=(),
    breakpoints1=(),
    piecewise_linear: bool = False,
):
    """Density of c0*V0 + c1*V1 at x, a float or an array, for independent
    V0 ~ f0 and V1 ~ f1: (1/(c0*c1)) * integral of f0((x-t)/c0) * f1(t/c1) dt
    over the t-range both supports allow, one engine row per x. Supports
    must be finite: callers pass the seeds' effective supports. Each row is
    cut at the images of the support ends and kinks (breakpoints0/1), so
    each adaptive piece is smooth. With piecewise_linear, both densities are
    linear between those nodes and one Simpson panel per piece is exact; the
    tolerance is then validated but not consumed.
    """
    if c0 <= 0 or c1 <= 0:
        raise DomainError(f"scale coefficients must be positive, got {c0}, {c1}")
    if not np.all(np.isfinite((*support0, *support1))):
        raise DomainError("scaled_convolution needs finite (truncated) supports")
    nodes0 = np.array((support0[0], *breakpoints0, support0[1]))
    nodes1 = np.array((support1[0], *breakpoints1, support1[1]))
    if piecewise_linear:
        share_config(cfg, cfg.abs_tol / (nodes0.size + nodes1.size - 3))
        cfg = None
    xs = np.asarray(x, dtype=np.float64).reshape(-1)

    def cuts(i, j):
        t_lo = np.maximum(c1 * nodes1[0], xs[i:j] - c0 * nodes0[-1])[:, None]
        t_hi = np.minimum(c1 * nodes1[-1], xs[i:j] - c0 * nodes0[0])[:, None]
        edges = np.hstack((xs[i:j, None] - c0 * nodes0, np.tile(c1 * nodes1, (len(t_lo), 1))))
        # an x outside the support clips every cut to t_hi: no width, no mass
        return np.sort(np.clip(edges, t_lo, t_hi), axis=1)

    def exact(t, row):
        # inside [t_lo, t_hi] the seed arguments lie in the supports; the clip
        # only undoes rounding, which could drop the edge value of a density
        # that jumps at its support end
        return (f0(np.clip((xs[row] - t) / c0, nodes0[0], nodes0[-1]))
                * f1(np.clip(t / c1, nodes1[0], nodes1[-1])))

    adaptive = lambda t, row: f0((xs[row] - t) / c0) * f1(t / c1)
    out = _integrate_rows(adaptive if cfg else exact, xs.size, cuts, cfg) / (c0 * c1)
    out = out.reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


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
        """Sample f on an even grid, in one call, and certify its
        normalization over the full (truncated) support, independently of
        the viewing window. With knots, f is a piecewise cubic there and the
        certificate is exact per piece."""
        xs = np.linspace(grid_lo, grid_hi, points)
        ys = f(xs)
        mass = integrate(f, support[0], support[1], cfg, knots=knots)
        return cls(xs=xs, ys=ys, support=support, norm_defect=abs(mass - 1.0), label=label)
