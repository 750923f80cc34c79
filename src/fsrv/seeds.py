"""Seed distributions: the laws of the two starting variables.

Four families are supported: exponential with a positive rate of finite
variance, uniform on the unit interval, standard normal, and `Tabulated`, a
piecewise-linear density on a uniform grid that holds its own nodes and
loads from two-column CSV. Every family exposes pdf (over arrays), moments,
support truncation for quadrature, its kinks, and a map from blocks of raw
Philox words to variates that the simulation's block sampler uses.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = math.sqrt(_TWO_PI)

#: Probability mass an effective support may leave out of an infinite
#: support, where a line integral that no true end bounds on one side
#: stops (numerics.line_points).
TAIL_MASS = 1e-12


def _uniforms_from_words(words: np.ndarray, out: np.ndarray, factor: float = 1.0) -> np.ndarray:
    """out = factor * u for the uniforms u = (words >> 11) * 2**-53, numpy's
    own map from raw words to [0, 1); shifts words in place and returns out.
    The factor joins the exact 2**-53, so factor * u keeps its bits."""
    np.right_shift(words, 11, out=words)
    return np.multiply(words, factor * 2.0**-53, out=out)


class SeedDistribution:
    """Common surface of all seed laws. Instances are immutable and shareable."""

    #: True when the density is linear between its breakpoints() on its
    #: support; quadrature over products of such densities is then exact
    #: with one two-point Gauss-Legendre panel per piece.
    piecewise_linear = False

    def pdf(self, x):
        """Density at x, elementwise over an array of x."""
        raise NotImplementedError

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of the law."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Mathematical support; endpoints may be infinite."""
        raise NotImplementedError

    def effective_support(self) -> tuple[float, float]:
        """Finite window outside of which less than TAIL_MASS of the mass
        lies: support() itself, which a seed with an infinite end overrides."""
        return self.support()

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the density is not smooth; quadrature over
        any expression in this density should split there. Support endpoints
        are not listed (integration ranges already stop at them)."""
        return ()

    def _variates_from_words(self, words: np.ndarray, out: np.ndarray) -> None:
        """Write n variates into out from an (n, 2) block of raw Philox words,
        which it overwrites.

        Inverse-cdf families consume column 0 only; the normal family uses
        both. Only the words a family uses become uniforms. Fixed consumption
        keeps bulk simulation reproducible under any chunking of paths.
        """
        raise NotImplementedError

    def spec_string(self) -> str:
        """Family descriptor, e.g. 'exp:1' or 'unif01'. parse_seed_spec reads
        it back to the same law, except for a table seed, whose
        'table:[lo,hi]xN' names no file."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(SeedDistribution):
    rate: float = 1.0

    def __post_init__(self):
        try:  # moments() divides by rate**2, which must neither overflow nor underflow
            ok = self.rate > 0 and 0.0 < 1.0 / self.rate**2 < math.inf
        except (OverflowError, ZeroDivisionError):
            ok = False
        if not ok:
            raise DomainError(f"exponential rate needs finite positive 1/rate^2, got {self.rate}")

    def pdf(self, x):
        # the exponential overflows for x < 0, where the density is 0 anyway
        return np.where(x < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))[()]

    def moments(self) -> tuple[float, float]:
        return 1.0 / self.rate, 1.0 / self.rate**2

    def support(self) -> tuple[float, float]:
        return 0.0, math.inf

    def effective_support(self) -> tuple[float, float]:
        return 0.0, -math.log(TAIL_MASS / 2.0) / self.rate

    def _variates_from_words(self, words: np.ndarray, out: np.ndarray) -> None:
        # -log1p(-u) / rate, with -u from the word map and the sign on rate
        np.log1p(_uniforms_from_words(words[:, 0], out, -1.0), out=out)
        np.divide(out, -self.rate, out=out)

    def spec_string(self) -> str:
        # the short form only when it reads back to the same rate
        short = f"{self.rate:g}"
        return f"exp:{short if float(short) == self.rate else repr(self.rate)}"


@dataclass(frozen=True)
class UniformUnit(SeedDistribution):
    piecewise_linear = True

    def pdf(self, x):
        return np.where((0.0 <= x) & (x <= 1.0), 1.0, 0.0)[()]

    def moments(self) -> tuple[float, float]:
        return 0.5, 1.0 / 12.0

    def support(self) -> tuple[float, float]:
        return 0.0, 1.0

    def _variates_from_words(self, words: np.ndarray, out: np.ndarray) -> None:
        _uniforms_from_words(words[:, 0], out)

    def spec_string(self) -> str:
        return "unif01"


@dataclass(frozen=True)
class StandardNormal(SeedDistribution):
    def pdf(self, x):
        with np.errstate(over="ignore"):  # x*x overflows far out, where the density is 0
            return (np.exp(-0.5 * x * x) / _SQRT_TWO_PI)[()]

    def moments(self) -> tuple[float, float]:
        return 0.0, 1.0

    def support(self) -> tuple[float, float]:
        return -math.inf, math.inf

    def effective_support(self) -> tuple[float, float]:
        z = math.sqrt(2.0 * math.log(2.0 / TAIL_MASS))
        return -z, z

    def _variates_from_words(self, words: np.ndarray, out: np.ndarray) -> None:
        # Box-Muller pair method, cosine branch: sqrt(-2 log1p(-u0)) * cos(2 pi u1).
        # The sine branch is discarded so each draw consumes exactly two uniforms.
        radius = np.log1p(_uniforms_from_words(words[:, 0], out, -1.0), out=out)
        np.sqrt(np.multiply(radius, -2.0, out=radius), out=radius)
        angle = _uniforms_from_words(words[:, 1], np.empty_like(out), _TWO_PI)
        np.multiply(radius, np.cos(angle, out=angle), out=out)

    def spec_string(self) -> str:
        return "normal01"


class Tabulated(SeedDistribution):
    """Piecewise-linear density on a uniform grid.

    Nodes are nonnegative density samples at evenly spaced points from lo to
    hi (at least 16 of them). The linear interpolant is renormalized at
    construction so it integrates to exactly one in trapezoid arithmetic;
    node_cdf holds that integral at the nodes, which the sampler inverts
    panel by panel, and the density kinks at every interior node.
    """

    piecewise_linear = True

    def __init__(self, lo: float, hi: float, nodes):
        nodes = np.asarray(nodes, dtype=np.float64)
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise DomainError(f"bad support [{lo}, {hi}]")
        if nodes.ndim != 1 or nodes.size < 16:
            raise DomainError(f"need at least 16 density nodes, got {nodes.size}")
        if np.any(nodes < 0) or not np.all(np.isfinite(nodes)):
            raise DomainError("density nodes must be finite and nonnegative")
        self.lo = float(lo)
        self.hi = float(hi)
        self.step = (self.hi - self.lo) / (nodes.size - 1)
        # node abscissae, ending exactly at hi
        self.grid = np.linspace(self.lo, self.hi, nodes.size)
        mass = float(np.trapezoid(nodes, dx=self.step))
        if mass <= 0:
            raise DomainError("density nodes sum to zero mass")
        self.nodes = nodes / mass
        # cumulative trapezoid masses at the nodes; last entry is 1 by construction
        panel = 0.5 * self.step * (self.nodes[:-1] + self.nodes[1:])
        self.node_cdf = np.concatenate([[0.0], np.cumsum(panel)])

    def pdf(self, x):
        return np.interp(x, self.grid, self.nodes, left=0.0, right=0.0)

    def moments(self) -> tuple[float, float]:
        # exact per-panel integrals of x*f and x^2*f for the linear interpolant,
        # about lo: far from 0 the variance would cancel away in E[x^2] - mean^2
        h = self.step
        y0 = self.nodes[:-1]
        y1 = self.nodes[1:]
        x0 = h * np.arange(self.nodes.size - 1)
        m0 = 0.5 * h * (y0 + y1)
        t1 = 0.5 * h * h * y0 + (y1 - y0) * h * h / 3.0
        t2 = y0 * h**3 / 3.0 + (y1 - y0) * h**3 / 4.0
        mean = float(np.sum(x0 * m0 + t1))
        second = float(np.sum(x0 * x0 * m0 + 2.0 * x0 * t1 + t2))
        return self.lo + mean, second - mean * mean

    def support(self) -> tuple[float, float]:
        return self.lo, self.hi

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.grid[1:-1].tolist())

    def _variates_from_words(self, words: np.ndarray, out: np.ndarray) -> None:
        # invert the piecewise-quadratic cdf panel by panel, from column 0
        u = _uniforms_from_words(words[:, 0], out)
        i = np.clip(np.searchsorted(self.node_cdf, u, side="right") - 1, 0, self.nodes.size - 2)
        rem = np.maximum(u - self.node_cdf[i], 0.0)
        y0 = self.nodes[i]
        slope = (self.nodes[i + 1] - y0) / self.step
        # root of 0.5*slope*t^2 + y0*t = rem, written in the cancellation-free form
        denom = y0 + np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * rem, 0.0))
        t = np.divide(2.0 * rem, denom, out=np.zeros_like(rem), where=denom > 0)
        np.add(self.lo + i * self.step, np.clip(t, 0.0, self.step), out=out)

    def spec_string(self) -> str:
        return f"table:[{self.lo},{self.hi}]x{self.nodes.size}"


def tabulated_from_csv(path) -> Tabulated:
    """Load a tabulated seed from a two-column CSV of (x, density) rows.

    A header may take the first non-blank row; blank rows are skipped. The
    x column must be an evenly spaced increasing grid.
    """
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="") as fh:
        rows = [(i, row) for i, row in enumerate(csv.reader(fh), 1)
                if any(cell.strip() for cell in row)]
    for number, row in rows:
        if len(row) < 2:
            raise DomainError(f"{path}: row {number} has fewer than 2 columns")
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            if number == rows[0][0]:
                continue  # header
            raise DomainError(f"{path}: row {number} is not numeric") from None
        xs.append(x)
        ys.append(y)
    if len(xs) < 16:
        raise DomainError(f"{path}: need at least 16 data rows, got {len(xs)}")
    grid = np.asarray(xs)
    if np.any(np.diff(grid) <= 0):
        raise DomainError(f"{path}: x column must be strictly increasing")
    even = np.linspace(grid[0], grid[-1], grid.size)  # where Tabulated puts the nodes
    # 1e-6 of a step, plus the rounding of a decimal x near the largest |x|
    if np.any(np.abs(grid - even) > 1e-6 * (even[1] - even[0])
              + 4 * np.spacing(np.max(np.abs(grid)))):
        raise DomainError(f"{path}: x column must be evenly spaced")
    return Tabulated(float(grid[0]), float(grid[-1]), np.asarray(ys))


def parse_seed_spec(spec: str) -> SeedDistribution:
    """Parse a seed-family string: exp:<rate>, unif01, normal01, table:<path>."""
    spec = spec.strip()
    if spec == "unif01":
        return UniformUnit()
    if spec == "normal01":
        return StandardNormal()
    if spec.startswith("exp:"):
        try:
            rate = float(spec[4:])
        except ValueError:
            raise DomainError(f"bad exponential rate in seed spec {spec!r}") from None
        return Exponential(rate=rate)
    if spec.startswith("table:"):
        return tabulated_from_csv(spec[6:])
    raise DomainError(f"unknown seed family {spec!r}")
