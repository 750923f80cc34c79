"""Quadrature, scaled density convolution, and certified grid curves.

Every integral goes through one engine, `_integrate_rows`, which integrates
a batch of rows, each cut at its own sorted edges, calling the integrand
once per step on all of that step's nodes: exactly, one two-point
Gauss-Legendre panel per piece, a step per row batch, or adaptively, with
Gauss-Kronrod 7/15 panels, a step per block of panels, bisecting those whose
error estimate |K15 - G7| misses their share of an absolute error target
(twice at the first level, where a whole piece seldom passes). Neither mode
evaluates the integrand at a cut, so it may jump at any cut; the engine's
callers cut every row at its known jumps and kinks. Adaptive mode keeps its
panels as columns, one array per field with one entry per panel: a block of
panels still to bisect is the columns a, b and piece, and the accepted
panels are the columns piece, a and K15, from which each piece's sum is
taken at the end.
`integrate` is its one-row front end, `line_points` and `line_cuts` where
every line integral over a seed pair ends and is cut, `scaled_convolution`
the density of c0*V0 + c1*V1 for independent seeds V0, V1, one row per x
integrated over V1, cut and made exact as the seeds say, and `DensityCurve`
a density sampled on a grid next to its normalization certificate. The
engine takes its target as a float, None for exact mode: abs_tol, or for a
density abs_tol scaled to bound sigma times its error. Densities take
arrays of points.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError
from .seeds import SeedDistribution

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

#: Two-point Gauss-Legendre panel on [-1, 1]: nodes -+1/sqrt(3), both of
#: weight 1. It is exact on cubics and never evaluates a panel end (Davis &
#: Rabinowitz, Methods of Numerical Integration, 1984).
_GAUSS2 = np.array((-1.0, 1.0)) / math.sqrt(3.0)

#: Nodes of one exact-mode step, a batch of as many rows as fit at two nodes
#: per piece (or one row), so memory stays flat however many points are asked
#: for; adaptive mode batches its rows the same way.
_CHUNK_ELEMENTS = 1 << 12

#: Panels one adaptive step bisects, a batch's first step as every later one:
#: at most 30,720 nodes a step, 15 per half or, at depth 1, per quarter.
_BLOCK_PANELS = 1 << 9


@dataclass(frozen=True)
class QuadratureConfig:
    """Error target for adaptive integration: abs_tol is the absolute error
    allowed in one integral by `integrate` and the joint slices, as
    estimated by its Gauss-Kronrod panels' |K15 - G7|; on smooth integrands
    that overstates the error of the K15 they contribute. For a density
    (`scaled_convolution`), abs_tol bounds sigma times its error, sigma the
    standard deviation of c0*V0 + c1*V1: the error of the standardized
    form's density. The estimate sees an integrand only at the panels'
    interior nodes, so it cannot see a jump that no cut marks. Every CLI
    command computes at DEFAULT_CONFIG (1e-9), the default of every public
    function that takes a config; a library caller passes its own, which
    reaches the engine as the float abs_tol or a target scaled from it. The
    depth cap, the evaluation budget and the seeds' tail cutoff are fixed
    constants, not settings."""

    abs_tol: float = 1e-9

    def __post_init__(self):
        # a nan tolerance is never met, so every panel would bisect to the cap
        if not 0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")


DEFAULT_CONFIG = QuadratureConfig()


def dekker_split(a):
    """Doubles a below 2**996 in magnitude as hi + lo exactly, each of at most
    26 significant bits, so products of halves are exact (Dekker, 1971)."""
    split = a * 134217729.0
    hi = split - (split - a)
    return hi, a - hi


def _integrate_rows(f, rows: int, width: int, edges, abs_tol: float | None = None) -> np.ndarray:
    """Integral of f over [e[i, 0], e[i, -1]] for each row i < rows, where
    e = edges(i, j) is the 2-D array of the width sorted edges of rows i to
    j - 1, asked for as many rows at a time as the batch takes; f(t, row)
    takes a step's nodes and their rows, which broadcast. Both modes
    evaluate f only inside the pieces between consecutive edges, so f may
    jump at any edge; inside each piece it must be a polynomial of degree at
    most 3 (exact mode) or continuous (adaptive mode). Only a piece a few
    ulps wide can round a node onto its edge, where the node's weight is as
    small as the piece. Without abs_tol (exact mode), one two-point
    Gauss-Legendre panel per piece, exact on cubics. With abs_tol (adaptive
    mode), the batch's pieces of positive width go to the engine at once,
    the zero-width ones clipped cuts leave costing nothing; each is
    bisected into Gauss-Kronrod 7/15 panels, with abs_tol shared equally
    over the row's pieces and halved at each bisection: a panel contributes
    its K15 and is accepted once |K15 - G7| meets its share, after one
    forced bisection, or once its midpoint is no longer representable. A
    panel that misses at depth 1 is bisected twice, into four depth-3
    quarters; a deeper one that misses is bisected once. A share that
    underflows to 0, a piece still short at depth _MAX_DEPTH, or one that
    would spend more than _MAX_EVALS integrand evaluations raises
    NonConvergenceError. The nodes and each piece's sum are those of a
    depth-first recursion that adds its panels from left to right, whatever
    rows share the batch.
    """
    out = np.empty(rows)
    step = max(1, _CHUNK_ELEMENTS // (2 * width - 2))
    for i in range(0, rows, step):
        cuts = edges(i, i + step)
        if abs_tol is not None:
            owner, col = np.nonzero(cuts[:, :-1] < cuts[:, 1:])  # the pieces of positive width
            share = abs_tol / np.bincount(owner, minlength=len(cuts))[owner]
            if not share.all():
                raise NonConvergenceError(f"abs_tol={abs_tol} is too fine to share out: "
                                          "its share underflows to 0")
            totals = _adaptive_pieces(f, cuts[owner, col], cuts[owner, col + 1], share, i + owner)
            out[i:i + step] = np.bincount(owner, weights=totals, minlength=len(cuts))
            continue
        c, h = 0.5 * (cuts[:, :-1] + cuts[:, 1:]), 0.5 * (cuts[:, 1:] - cuts[:, :-1])
        t = np.multiply.outer(h, _GAUSS2)
        t += c[..., None]
        g = f(t, np.arange(i, i + len(t))[:, None, None]).reshape(t.shape)
        out[i:i + step] = np.add.reduce(h * (g[..., 0] + g[..., 1]), axis=1)
    return out


def _adaptive_pieces(f, lo, hi, share, row) -> np.ndarray:
    """Integrals of f over the pieces [lo, hi] of the rows row, each to its
    own absolute tolerance share."""
    pieces = lo.size
    # a block holds panels of one depth that failed their tolerance share as
    # the columns a, b and piece, one panel per entry; each piece starts as
    # one such panel, never evaluated, as its first bisection is forced to
    # guard against G7 and K15 agreeing by chance. A step takes one block:
    # it bisects its panels (twice at depth 1) and evaluates the results
    depth, a, b, p, stack = 0, lo, hi, np.arange(pieces), []
    # piece, a and K15 of accepted panels, a column each; empty for no pieces
    accepted = [p[:0]], [a[:0]], [a[:0]]
    evals = np.zeros(pieces, dtype=np.int64)

    while True:
        # the panels to bisect go on the stack in blocks, the leftmost on top
        for i in reversed(range(0, a.size, _BLOCK_PANELS)):
            j = i + _BLOCK_PANELS
            stack.append((depth, a[i:j], b[i:j], p[i:j]))
        if not stack:
            break
        depth, a, b, p = stack.pop()
        # a panel that missed at depth 1 is bisected twice before its quarters
        # are evaluated: a piece is a whole clipped support or the span
        # between two cuts, and its depth-2 halves would mostly miss again
        splits = 2 if depth == 1 else 1
        evals += (_XK.size << splits) * np.bincount(p, minlength=pieces)
        if evals.max() > _MAX_EVALS:
            q = np.argmax(evals > _MAX_EVALS)
            raise NonConvergenceError(
                f"quadrature on [{lo[q]}, {hi[q]}] ran out of its budget of {_MAX_EVALS} "
                f"integrand evaluations before reaching abs_tol={share[q]}")
        for _ in range(splits):
            depth += 1  # of the halves
            m = (a + b) / 2.0
            # each left half next to its right half keeps the panels in piece
            # order, so the leftmost block holds the first pieces
            a2, b2 = np.empty(2 * a.size), np.empty(2 * a.size)  # the halves' ends
            a2[::2], a2[1::2], b2[::2], b2[1::2] = a, m, m, b
            a, b = a2, b2
        p = np.repeat(p, 1 << splits)
        tol = np.ldexp(share[p], -depth)  # the share, halved at each bisection
        c, h = (a + b) / 2.0, (b - a) / 2.0
        t = c[:, None] + h[:, None] * _XK
        g = f(t, row[p][:, None]).reshape(t.shape)
        # a sum along each panel's own nodes, in an order no batch width changes
        kronrod = h * np.add.reduce(g * _WK, axis=1)
        gauss = h * np.add.reduce(g[:, 1::2] * _WG, axis=1)
        done = (np.abs(kronrod - gauss) <= tol) | ~((a < c) & (c < b))
        if depth >= _MAX_DEPTH and not done.all():
            q = p[np.argmin(done)]
            raise NonConvergenceError(f"quadrature on [{lo[q]}, {hi[q]}] hit depth {_MAX_DEPTH} "
                                      f"before reaching abs_tol={share[q]}")
        for column, v in zip(accepted, (p, a, kronrod)):
            column.append(v[done])
        failed = ~done
        a, b, p = a[failed], b[failed], p[failed]

    p, a, kronrod = (np.concatenate(column) for column in accepted)
    order = np.lexsort((a, p))
    # bincount adds its weights in order, as a depth-first running total would
    return np.bincount(p[order], weights=kronrod[order], minlength=pieces)


def integrate(f: Func, lo: float, hi: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
              knots=None) -> float:
    """Integral of f over [lo, hi]; f takes an array of nodes.

    The pieces are [lo, hi] cut at the knots inside it; f is never
    evaluated at lo, hi or a knot, so it may jump there. Without knots,
    adaptive to cfg.abs_tol with Gauss-Kronrod panels (see
    _integrate_rows): f must be continuous on (lo, hi), since a jump
    between two nodes goes unseen. With knots, f must be a polynomial of
    degree at most 3 on each piece; one two-point Gauss-Legendre panel per
    piece is then exact, and cfg is not consulted. Both bounds must be
    finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"integration bounds must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise DomainError(f"integration bounds out of order: [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    abs_tol = cfg.abs_tol
    if knots is None:
        edges = np.array([[lo, hi]], dtype=np.float64)
    else:
        knots = np.asarray(knots, dtype=np.float64)
        edges = np.sort(np.concatenate(([lo], knots[(knots > lo) & (knots < hi)], [hi])))
        edges, abs_tol = edges[None, np.diff(edges, prepend=-np.inf) > 0], None
    return float(_integrate_rows(lambda t, row: f(t.ravel()), 1, edges.shape[1],
                                 lambda i, j: edges[i:j], abs_tol)[0])


def line_points(seed0: SeedDistribution, seed1: SeedDistribution):
    """Each seed's points where a line integral over the pair ends or may
    kink, its support's ends with its breakpoints() between them: the one
    rule for where the lines c0*V0 + c1*V1 = x (c0, c1 > 0) end. V1 rises as
    V0 falls along them, so V0's upper and V1's lower end bound one side,
    and V0's lower and V1's upper end the other. A side whose true ends are
    both infinite takes both effective ends instead; one still unbounded
    raises DomainError. line_cuts clips an infinite end that stays to the
    finite one across the line."""
    (lo0, hi0), (lo1, hi1) = seed0.support(), seed1.support()
    if math.isinf(hi0) and math.isinf(lo1):
        hi0, lo1 = seed0.effective_support()[1], seed1.effective_support()[0]
    if math.isinf(lo0) and math.isinf(hi1):
        lo0, hi1 = seed0.effective_support()[0], seed1.effective_support()[1]
    if math.isinf(hi0) and math.isinf(lo1) or math.isinf(lo0) and math.isinf(hi1):
        raise DomainError("a line integral over these seeds needs a finite end on each side")
    return np.array((lo0, *seed0.breakpoints(), hi0)), np.array((lo1, *seed1.breakpoints(), hi1))


def line_cuts(images0, images1) -> np.ndarray:
    """The sorted cuts of line integrals over a seed pair, one row per line:
    each row's images of seed 0's and seed 1's line_points (their last
    axes), clipped to the range both seeds allow: from the larger of the two
    image minima to the smaller of the maxima, the ends of the monotone
    images. A row where the ranges do not overlap has every cut clipped to
    that maximum: no width, no mass. Leading axes broadcast."""
    (a0, b0), (a1, b1) = ((v[..., :1], v[..., -1:]) for v in (images0, images1))
    lo = np.maximum(np.minimum(a0, b0), np.minimum(a1, b1))
    hi = np.minimum(np.maximum(a0, b0), np.maximum(a1, b1))
    m0 = images0.shape[-1]
    cuts = np.empty(lo.shape[:-1] + (m0 + images1.shape[-1],))
    cuts[..., :m0], cuts[..., m0:] = images0, images1
    np.minimum(np.maximum(cuts, lo, out=cuts), hi, out=cuts)  # np.clip, without its overhead
    cuts.sort(axis=-1)
    return cuts


def scaled_convolution(seed0: SeedDistribution, seed1: SeedDistribution, c0: float,
                       c1: float, x, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Density of c0*V0 + c1*V1 at x, a float or an array, for independent
    seeds V0 ~ seed0 and V1 ~ seed1 with densities f0, f1: (1/c0) * integral
    of f0((x - c1*u)/c0) * f1(u) du over u = V1, one engine row per x, cut
    (line_cuts) where the integrand may end or kink: at u = (x - c0*b)/c1
    for seed 0's line_points b and at seed 1's own. The adaptive target is
    cfg.abs_tol*c0/sigma, sigma = hypot(c0*sd0, c1*sd1) the form's standard
    deviation, so abs_tol bounds sigma times the density's error at every n
    and seed scale; a target that overflows raises DomainError. When both
    seeds are piecewise_linear, each piece's integrand is quadratic and
    exact mode integrates it without cfg.
    """
    if not (0 < c0 < math.inf and 0 < c1 < math.inf):
        raise DomainError(f"scale coefficients must be positive and finite, got {c0}, {c1}")
    nodes0, nodes1 = line_points(seed0, seed1)
    abs_tol = None
    if not (seed0.piecewise_linear and seed1.piecewise_linear):
        sd0, sd1 = (math.sqrt(seed.moments()[1]) for seed in (seed0, seed1))
        abs_tol = cfg.abs_tol * c0 / math.hypot(c0 * sd0, c1 * sd1)
        if abs_tol == math.inf:
            raise DomainError(f"abs_tol={cfg.abs_tol} overflows as a density target "
                              f"for c0={c0}, c1={c1}")
    xs = np.asarray(x, dtype=np.float64).reshape(-1)
    integrand = lambda u, row: seed0.pdf((xs[row] - c1 * u) / c0) * seed1.pdf(u)
    with np.errstate(invalid="ignore"):  # x = inf less an infinite end: nan cuts, no width
        out = _integrate_rows(integrand, xs.size, nodes0.size + nodes1.size,
                              lambda i, j: line_cuts((xs[i:j, None] - c0 * nodes0) / c1, nodes1),
                              abs_tol) / c0
    out = out.reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


@dataclass
class DensityCurve:
    """A univariate density sampled on a grid, with its normalization
    certificate (norm_defect = |integral - 1|)."""

    xs: np.ndarray
    ys: np.ndarray
    norm_defect: float

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
        knots=None,
    ) -> "DensityCurve":
        """Sample f on an even grid, in one call, and certify its
        normalization over support, the full (truncated) support, whatever
        the viewing window. With knots, f is a piecewise cubic there and the
        certificate is exact per piece."""
        xs = np.linspace(grid_lo, grid_hi, points)
        ys = f(xs)
        mass = integrate(f, support[0], support[1], cfg, knots=knots)
        return cls(xs=xs, ys=ys, norm_defect=abs(mass - 1.0))
