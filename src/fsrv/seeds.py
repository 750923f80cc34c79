"""Seed distributions: the laws of the two starting variables.

Four families are supported: exponential with arbitrary positive rate,
uniform on the unit interval, standard normal, and tabulated piecewise-linear
densities on a uniform grid (loadable from two-column CSV). Every family
exposes pdf, cdf, moments, support truncation for quadrature, and a map from
blocks of uniforms to variates that the simulation's block sampler uses.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_TWO_PI = 2.0 * math.pi
_SQRT_TWO_PI = math.sqrt(_TWO_PI)

#: Probability mass an effective support may leave out of an infinite
#: support; the truncation error of every quadrature over seed densities.
TAIL_MASS = 1e-12


class SeedDistribution:
    """Common surface of all seed laws. Instances are immutable and shareable."""

    kind: str = "abstract"

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def moments(self) -> tuple[float, float]:
        """(mean, variance) of the law."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """Mathematical support; endpoints may be infinite."""
        raise NotImplementedError

    def effective_support(self) -> tuple[float, float]:
        """Finite window outside of which less than TAIL_MASS of the mass
        lies; equal to support() when that is already finite."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the density is not smooth; quadrature over
        any expression in this density should split there. Support endpoints
        are not listed (integration ranges already stop at them)."""
        return ()

    def _variates_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map an (n, 2) block of uniforms to n variates.

        Inverse-cdf families consume column 0 only; the normal family uses
        both. Fixed consumption keeps bulk simulation reproducible under any
        chunking of paths.
        """
        raise NotImplementedError

    def spec_string(self) -> str:
        """Parseable family descriptor, e.g. 'exp:1' or 'unif01'."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(SeedDistribution):
    rate: float = 1.0
    kind = "exponential"

    def __post_init__(self):
        if not self.rate > 0:
            raise DomainError(f"exponential rate must be positive, got {self.rate}")

    def pdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return self.rate * math.exp(-self.rate * x)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def moments(self) -> tuple[float, float]:
        return 1.0 / self.rate, 1.0 / self.rate**2

    def support(self) -> tuple[float, float]:
        return 0.0, math.inf

    def effective_support(self) -> tuple[float, float]:
        return 0.0, -math.log(TAIL_MASS / 2.0) / self.rate

    def _variates_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u[:, 0]) / self.rate

    def spec_string(self) -> str:
        return f"exp:{self.rate:g}"


@dataclass(frozen=True)
class UniformUnit(SeedDistribution):
    kind = "uniform_unit"

    def pdf(self, x: float) -> float:
        return 1.0 if 0.0 <= x <= 1.0 else 0.0

    def cdf(self, x: float) -> float:
        return min(1.0, max(0.0, x))

    def moments(self) -> tuple[float, float]:
        return 0.5, 1.0 / 12.0

    def support(self) -> tuple[float, float]:
        return 0.0, 1.0

    def effective_support(self) -> tuple[float, float]:
        return 0.0, 1.0

    def _variates_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return u[:, 0].copy()

    def spec_string(self) -> str:
        return "unif01"


@dataclass(frozen=True)
class StandardNormal(SeedDistribution):
    kind = "standard_normal"

    def pdf(self, x: float) -> float:
        return math.exp(-0.5 * x * x) / _SQRT_TWO_PI

    def cdf(self, x: float) -> float:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    def moments(self) -> tuple[float, float]:
        return 0.0, 1.0

    def support(self) -> tuple[float, float]:
        return -math.inf, math.inf

    def effective_support(self) -> tuple[float, float]:
        z = math.sqrt(2.0 * math.log(2.0 / TAIL_MASS))
        return -z, z

    def _variates_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        # Box-Muller pair method, cosine branch; the sine branch is discarded
        # so each draw consumes exactly two uniforms.
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        return radius * np.cos(_TWO_PI * u[:, 1])

    def spec_string(self) -> str:
        return "normal01"


class TabulatedPdf:
    """Piecewise-linear density on a uniform grid.

    Nodes are nonnegative density samples at evenly spaced points from lo to
    hi (at least 16 of them). The linear interpolant is renormalized at
    construction so it integrates to exactly one in trapezoid arithmetic.
    """

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
        mass = float(np.trapezoid(nodes, dx=self.step))
        if mass <= 0:
            raise DomainError("density nodes sum to zero mass")
        self.nodes = nodes / mass
        # cumulative trapezoid masses at the nodes; last entry is 1 by construction
        panel = 0.5 * self.step * (self.nodes[:-1] + self.nodes[1:])
        self.node_cdf = np.concatenate([[0.0], np.cumsum(panel)])

    def pdf(self, x: float) -> float:
        if x < self.lo or x > self.hi:
            return 0.0
        pos = (x - self.lo) / self.step
        i = min(int(pos), self.nodes.size - 2)
        frac = pos - i
        return float(self.nodes[i] + (self.nodes[i + 1] - self.nodes[i]) * frac)

    def cdf(self, x: float) -> float:
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        pos = (x - self.lo) / self.step
        i = min(int(pos), self.nodes.size - 2)
        t = (pos - i) * self.step
        y0 = self.nodes[i]
        slope = (self.nodes[i + 1] - y0) / self.step
        return float(self.node_cdf[i] + y0 * t + 0.5 * slope * t * t)

    def moments(self) -> tuple[float, float]:
        # exact per-panel integrals of x*f and x^2*f for the linear interpolant
        h = self.step
        y0 = self.nodes[:-1]
        y1 = self.nodes[1:]
        x0 = self.lo + h * np.arange(self.nodes.size - 1)
        m0 = 0.5 * h * (y0 + y1)
        t1 = 0.5 * h * h * y0 + (y1 - y0) * h * h / 3.0
        t2 = y0 * h**3 / 3.0 + (y1 - y0) * h**3 / 4.0
        mean = float(np.sum(x0 * m0 + t1))
        second = float(np.sum(x0 * x0 * m0 + 2.0 * x0 * t1 + t2))
        return mean, second - mean * mean

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to variates by inverting the piecewise-
        quadratic cdf panel by panel."""
        u = np.asarray(u, dtype=np.float64)
        i = np.clip(np.searchsorted(self.node_cdf, u, side="right") - 1, 0, self.nodes.size - 2)
        rem = np.maximum(u - self.node_cdf[i], 0.0)
        y0 = self.nodes[i]
        slope = (self.nodes[i + 1] - y0) / self.step
        # root of 0.5*slope*t^2 + y0*t = rem, written in the cancellation-free form
        denom = y0 + np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * rem, 0.0))
        t = np.divide(2.0 * rem, denom, out=np.zeros_like(rem), where=denom > 0)
        return self.lo + i * self.step + np.clip(t, 0.0, self.step)


@dataclass(frozen=True)
class Tabulated(SeedDistribution):
    grid: TabulatedPdf
    kind = "tabulated"

    def pdf(self, x: float) -> float:
        return self.grid.pdf(x)

    def cdf(self, x: float) -> float:
        return self.grid.cdf(x)

    def moments(self) -> tuple[float, float]:
        return self.grid.moments()

    def support(self) -> tuple[float, float]:
        return self.grid.lo, self.grid.hi

    def effective_support(self) -> tuple[float, float]:
        return self.grid.lo, self.grid.hi

    def breakpoints(self) -> tuple[float, ...]:
        # the interpolant kinks at every interior node
        nodes = self.grid.nodes.size
        return tuple(self.grid.lo + self.grid.step * i for i in range(1, nodes - 1))

    def _variates_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        return self.grid.inverse_cdf(u[:, 0])

    def spec_string(self) -> str:
        return f"table:[{self.grid.lo},{self.grid.hi}]x{self.grid.nodes.size}"


def tabulated_from_csv(path) -> Tabulated:
    """Load a tabulated seed from a two-column CSV of (x, density) rows.

    A single header row is permitted and auto-detected. The x column must be
    an evenly spaced increasing grid.
    """
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="") as fh:
        for row_index, row in enumerate(csv.reader(fh)):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise DomainError(f"{path}: row {row_index + 1} has fewer than 2 columns")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if row_index == 0:
                    continue  # header
                raise DomainError(f"{path}: row {row_index + 1} is not numeric") from None
            xs.append(x)
            ys.append(y)
    if len(xs) < 16:
        raise DomainError(f"{path}: need at least 16 data rows, got {len(xs)}")
    grid = np.asarray(xs)
    steps = np.diff(grid)
    if np.any(steps <= 0):
        raise DomainError(f"{path}: x column must be strictly increasing")
    h = float(steps[0])
    if np.any(np.abs(steps - h) > 1e-9 * max(abs(h), 1.0)):
        raise DomainError(f"{path}: x column must be evenly spaced")
    return Tabulated(TabulatedPdf(float(grid[0]), float(grid[-1]), np.asarray(ys)))


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
