"""Monte Carlo engine: path generation, ratio statistics, and KS distances.

Each path draws its two seed values from a dedicated substream: path i reads
counter block i of a Philox generator keyed by the run seed, a fixed block
of four uniforms per path. Results are therefore bit-identical no matter how
the draws are chunked, and any path can be regenerated on its own.

A run walks the recursion forward with a cursor over the index: reading
members in ascending n costs one array addition per index, and reading a
smaller n restarts the walk from the seed pairs. The cursor makes a run
stateful, so a run must not be shared across threads.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import marginal
from .errors import DegenerateSampleError, DomainError, KsUnreliableWarning
from .fib_core import PHI
from .limits import sum_law
from .marginal import FsrvModel

_MASK64 = (1 << 64) - 1

#: Uniform variates reserved per path: two per seed draw.
_BLOCK = 4

#: Paths drawn per Philox call by run_simulation; bounds the uniform block at
#: 2 MB whatever the path count.
_CHUNK_PATHS = 1 << 16

#: Paths whose denominator magnitude falls below this are excluded from
#: ratio statistics.
RATIO_EXCLUSION_FLOOR = 1e-12

#: Relative closeness to the golden ratio tallied by ratio_stats.
PHI_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SimulationConfig:
    rng_seed: int
    n_paths: int
    horizon: int
    model: FsrvModel

    def __post_init__(self):
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 2 <= self.horizon <= 90:
            raise DomainError(f"horizon must be in [2, 90], got {self.horizon}")


def _uniform_blocks(rng_seed: int, start_path: int, count: int) -> np.ndarray:
    """(count, 4) uniforms; row i is counter block start_path+i of the keyed
    Philox stream, independent of how calls batch the paths."""
    gen = np.random.Generator(np.random.Philox(key=rng_seed & _MASK64, counter=start_path))
    return gen.random(_BLOCK * count).reshape(count, _BLOCK)


def _draw_seed_pairs(config: SimulationConfig, start_path: int, count: int) -> np.ndarray:
    u = _uniform_blocks(config.rng_seed, start_path, count)
    pairs = np.empty((count, 2))
    pairs[:, 0] = config.model.seed0._variates_from_uniforms(u[:, 0:2])
    pairs[:, 1] = config.model.seed1._variates_from_uniforms(u[:, 2:4])
    return pairs


class SimulationRun:
    """Sampled seed pairs plus derived per-index statistics.

    Everything downstream of the seed pairs is deterministic, so the run
    stores only those and derives path values by the additive recursion. A
    forward cursor keeps members k and k+1 of every path in two run-owned
    buffers, stepped in place: ascending reads are O(1) array additions per
    index, and a read below the cursor restarts the walk from the seeds.
    In-place steps give the same IEEE sums as fresh additions, so results do
    not depend on the order of reads. Not safe to share across threads.
    """

    def __init__(self, config: SimulationConfig, seed_pairs: np.ndarray, n_workers: int):
        self.config = config
        self.seed_pairs = seed_pairs
        self.n_workers = n_workers
        self._summary = None
        self._k = None
        self._prev = self._cur = None

    def _check_index(self, n: int) -> None:
        if not 0 <= n <= self.config.horizon:
            raise DomainError(f"n must be in [0, {self.config.horizon}], got {n}")

    def _members(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Members k and k+1 of every path as views of the cursor buffers,
        which the next cursor move overwrites."""
        if self._k is None or k < self._k:
            self._k = 0
            self._prev, self._cur = self.seed_pairs[:, 0].copy(), self.seed_pairs[:, 1].copy()
        prev, cur = self._prev, self._cur
        for _ in range(k - self._k):
            prev += cur
            prev, cur = cur, prev
        self._prev, self._cur, self._k = prev, cur, k
        return prev, cur

    def _member(self, n: int) -> np.ndarray:
        prev, cur = self._members(max(n - 1, 0))
        return prev if n == 0 else cur

    def values_at(self, n: int) -> np.ndarray:
        """Member n of every path, as a new array."""
        self._check_index(n)
        return self._member(n).copy()

    def sums_at(self, n: int) -> np.ndarray:
        """Running sum of members 0..n per path, accumulated term by term."""
        self._check_index(n)
        prev, cur = self.seed_pairs[:, 0].copy(), self.seed_pairs[:, 1].copy()
        total = prev.copy()
        for _ in range(n):
            total += cur
            prev += cur
            prev, cur = cur, prev
        return total

    def y_normalized(self, n: int) -> np.ndarray:
        """Standardized member n using its analytic mean and variance."""
        mean, variance = marginal.moments_xn(self.config.model, n)
        if variance <= 0:
            raise DomainError("zero variance: standardized member undefined")
        return (self.values_at(n) - mean) / math.sqrt(variance)

    def sums_normalized(self, n: int) -> np.ndarray:
        """Standardized partial sum through member n."""
        law = sum_law(n, self.config.model)
        if law.variance <= 0:
            raise DomainError("zero variance: standardized sum undefined")
        return (self.sums_at(n) - law.mean) / math.sqrt(law.variance)

    def summary(self) -> dict:
        """Per-index empirical mean and variance, cached; the reduction order
        is fixed by path index, so the result is chunking-invariant."""
        if self._summary is None:
            means, variances = [], []
            # np.var(vals, ddof=1) step by step, reusing the mean and one buffer
            scratch = np.empty(self.config.n_paths)
            for n in range(self.config.horizon + 1):
                vals = self._member(n)
                mean = np.mean(vals)
                means.append(float(mean))
                if vals.size > 1:
                    np.subtract(vals, mean, out=scratch)
                    np.multiply(scratch, scratch, out=scratch)
                    variances.append(float(np.sum(scratch) / (vals.size - 1)))
                else:
                    variances.append(0.0)
            self._summary = {
                "rng_seed": self.config.rng_seed,
                "n_paths": self.config.n_paths,
                "horizon": self.config.horizon,
                "seed0": self.config.model.seed0.spec_string(),
                "seed1": self.config.model.seed1.spec_string(),
                "mean": means,
                "variance": variances,
            }
        return self._summary

    def summary_json(self) -> str:
        """Canonical JSON rendering of summary(); byte-identical for
        identical configs regardless of worker count."""
        return json.dumps(self.summary(), separators=(",", ":"))


def run_simulation(config: SimulationConfig, n_workers: int = 1) -> SimulationRun:
    """Draw every path's seed pair, in chunks of at most _CHUNK_PATHS paths.

    n_workers is validated and kept for callers that pass it; it changes
    neither the results nor the speed.
    """
    if n_workers < 1:
        raise DomainError(f"n_workers must be >= 1, got {n_workers}")
    pairs = np.empty((config.n_paths, 2))
    for start in range(0, config.n_paths, _CHUNK_PATHS):
        count = min(_CHUNK_PATHS, config.n_paths - start)
        pairs[start:start + count] = _draw_seed_pairs(config, start, count)
    return SimulationRun(config, pairs, n_workers)


def sample_path(config: SimulationConfig, path_index: int) -> list[float]:
    """Values of members 0..horizon for one path, each subsequent value the
    exact sum of the previous two."""
    if not 0 <= path_index < config.n_paths:
        raise DomainError(f"path_index must be in [0, {config.n_paths}), got {path_index}")
    x0, x1 = _draw_seed_pairs(config, path_index, 1)[0]
    path = [float(x0), float(x1)]
    for _ in range(config.horizon - 1):
        path.append(path[-2] + path[-1])
    return path


@dataclass(frozen=True)
class RatioStats:
    """Statistics of the consecutive-member ratio across paths."""

    n: int
    mean: float
    min: float
    max: float
    frac_near_phi: float
    n_used: int
    n_excluded: int


def ratio_stats(run: SimulationRun, n: int) -> RatioStats:
    """Distribution of member_{n+1} / member_n across paths.

    Paths whose denominator magnitude is below RATIO_EXCLUSION_FLOOR are
    excluded and counted, never silently dropped; if every path is excluded
    a DegenerateSampleError is raised.
    """
    if n + 1 > run.config.horizon:
        raise DomainError(f"need n+1 <= horizon={run.config.horizon}, got n={n}")
    run._check_index(n)
    denom, numer = run._members(n)
    keep = np.abs(denom) >= RATIO_EXCLUSION_FLOOR
    n_excluded = int(np.sum(~keep))
    if not np.any(keep):
        raise DegenerateSampleError(f"all {denom.size} paths excluded at n={n}")
    z = numer[keep] / denom[keep]
    return RatioStats(
        n=n,
        mean=float(np.mean(z)),
        min=float(np.min(z)),
        max=float(np.max(z)),
        frac_near_phi=float(np.mean(np.abs(z - PHI) <= PHI_TOLERANCE)),
        n_used=int(z.size),
        n_excluded=n_excluded,
    )


def ks_distance(run: SimulationRun, n: int, target_cdf, which: str = "y") -> float:
    """Kolmogorov-Smirnov distance between the empirical law of the
    standardized member (which='y') or standardized partial sum (which='s')
    at index n and a target cdf.

    The supremum is taken over the sorted sample points, comparing the
    empirical cdf i/N against the target there; a sample measured against
    its own empirical cdf therefore scores exactly 0. Warns when fewer than
    100 paths back the empirical cdf.
    """
    if which == "y":
        sample = run.y_normalized(n)
    elif which == "s":
        sample = run.sums_normalized(n)
    else:
        raise DomainError(f"which must be 'y' or 's', got {which!r}")
    if sample.size < 100:
        warnings.warn(
            f"KS distance from only {sample.size} paths is unreliable",
            KsUnreliableWarning,
            stacklevel=2,
        )
    xs = np.sort(sample)
    f = np.asarray(target_cdf(xs), dtype=np.float64)
    steps = np.arange(1, xs.size + 1) / xs.size
    return float(np.max(np.abs(steps - f)))
