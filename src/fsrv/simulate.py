"""Monte Carlo engine: path generation, ratio statistics, and KS distances.

Each path draws its two seed values from a dedicated substream: path i reads
counter block i of a Philox generator keyed by the run seed, a fixed block
of four uniforms per path. Results are therefore bit-identical no matter how
the draws are chunked.

The summary's per-index means and variances come from the seed pairs'
sample moments, computed afresh on each call. Member reads, partial sums,
ratio statistics and sample_path share one forward cursor over the index:
reading members in ascending n costs one array addition per index, and
reading a smaller n restarts the walk from the seed pairs. The cursor makes
a run stateful, so a run must not be shared across threads.
"""

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import marginal
from .errors import DegenerateSampleError, DomainError, KsUnreliableWarning
from .fib_core import PHI, fib
from .limits import normalized_sum_law
from .marginal import FsrvModel

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
        if not 0 <= self.rng_seed < 2**64:  # the Philox key is 64 bits
            raise DomainError(f"rng_seed must be in [0, 2**64), got {self.rng_seed}")
        if self.n_paths < 1:
            raise DomainError(f"n_paths must be >= 1, got {self.n_paths}")
        if not 2 <= self.horizon <= 90:
            raise DomainError(f"horizon must be in [2, 90], got {self.horizon}")


def _uniform_blocks(rng_seed: int, start_path: int, count: int) -> np.ndarray:
    """(count, 4) uniforms; row i is counter block start_path+i of the keyed
    Philox stream, independent of how calls batch the paths."""
    gen = np.random.Generator(np.random.Philox(key=rng_seed, counter=start_path))
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
    stores only those: the summary reads their moments, and path values
    follow the additive recursion. A forward cursor keeps members k and k+1
    of every path in two run-owned buffers, stepped in place: ascending reads
    are O(1) array additions per index, and a read below the cursor restarts
    the walk from the seeds. In-place steps give the same IEEE sums as fresh
    additions, so results do not depend on the order of reads. Not safe to
    share across threads.
    """

    def __init__(self, config: SimulationConfig, seed_pairs: np.ndarray):
        self.config = config
        self.seed_pairs = seed_pairs
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
        """Running sum of members 0..n per path, accumulated term by term in
        index order while the cursor walks from the seeds."""
        self._check_index(n)
        total = self._member(0).copy()
        for k in range(1, n + 1):
            total += self._member(k)
        return total

    def y_normalized(self, n: int) -> np.ndarray:
        """Standardized member n, as a new array, using its analytic moments."""
        mean, variance = marginal.moments_xn(self.config.model, n)
        if variance <= 0:
            raise DomainError("zero variance: standardized member undefined")
        y = self.values_at(n)
        y -= mean
        y /= math.sqrt(variance)
        return y

    def sums_normalized(self, n: int) -> np.ndarray:
        """Standardized partial sum through member n, as a new array."""
        mean, sd = normalized_sum_law(n, self.config.model)
        total = self.sums_at(n)
        total -= mean
        total /= sd
        return total

    def summary(self) -> dict:
        """Per-index empirical mean and variance from the seed pairs' moments:
        member n is c0*V0 + c1*V1, so its mean is c0*m0 + c1*m1 and its
        variance the quadratic form of the pairs' 2x2 sample covariance. No
        cursor and no BLAS call, so the bytes do not depend on read order,
        chunking or BLAS threads. Raises DomainError when a mean or variance
        overflows a double."""
        # (c0, c1) is (1, 0) at n = 0 and (a_{n-1}, a_n) after
        c1 = np.array([fib(n) for n in range(self.config.horizon + 1)], dtype=np.float64)
        c0 = np.concatenate(([1.0], c1[:-1]))
        v0, v1 = self.seed_pairs[:, 0], self.seed_pairs[:, 1]
        scale = max(self.config.n_paths - 1, 1)  # one path: every deviation is 0
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            m0, m1 = np.mean(v0), np.mean(v1)
            d0, d1 = v0 - m0, v1 - m1
            s00, s01, s11 = (np.sum(a * b) / scale for a, b in ((d0, d0), (d0, d1), (d1, d1)))
            means = c0 * m0 + c1 * m1
            variances = c0 * c0 * s00 + 2.0 * c0 * c1 * s01 + c1 * c1 * s11
        finite = np.isfinite(means) & np.isfinite(variances)
        if not finite.all():
            raise DomainError(f"the empirical mean or variance of member "
                              f"{int(np.argmin(finite))} overflows a double")
        return {
            "rng_seed": self.config.rng_seed,
            "n_paths": self.config.n_paths,
            "horizon": self.config.horizon,
            "seed0": self.config.model.seed0.spec_string(),
            "seed1": self.config.model.seed1.spec_string(),
            "mean": means.tolist(),
            "variance": variances.tolist(),
        }

    def summary_json(self) -> str:
        """Canonical JSON rendering of summary(), computed afresh like it;
        byte-identical for identical configs regardless of worker count."""
        return json.dumps(self.summary(), separators=(",", ":"))


def run_simulation(config: SimulationConfig, n_workers: int = 1) -> SimulationRun:
    """Draw every path's seed pair, in chunks of at most _CHUNK_PATHS paths.

    n_workers is validated for callers that pass it, and then unused: it
    changes neither the results nor the speed.
    """
    if n_workers < 1:
        raise DomainError(f"n_workers must be >= 1, got {n_workers}")
    pairs = np.empty((config.n_paths, 2))
    for start in range(0, config.n_paths, _CHUNK_PATHS):
        count = min(_CHUNK_PATHS, config.n_paths - start)
        pairs[start:start + count] = _draw_seed_pairs(config, start, count)
    return SimulationRun(config, pairs)


def sample_path(run: SimulationRun) -> np.ndarray:
    """Members 0..horizon of every path, row i holding path i, from one
    ascending walk of the run's cursor over its drawn seed pairs: no seed is
    drawn again, and each member is the exact sum of the previous two."""
    paths = np.empty((run.config.n_paths, run.config.horizon + 1))
    for n in range(run.config.horizon + 1):
        paths[:, n] = run._member(n)
    return paths


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

    Paths whose denominator magnitude is below RATIO_EXCLUSION_FLOOR, or is
    NaN, are excluded and counted, never silently dropped; if every path is
    excluded a DegenerateSampleError is raised. The two members are read from
    the cursor without copying; kept paths are copied out only when some path
    is excluded.
    """
    if n + 1 > run.config.horizon:
        raise DomainError(f"need n+1 <= horizon={run.config.horizon}, got n={n}")
    run._check_index(n)
    denom, numer = run._members(n)
    n_paths = denom.size
    n_used = int(np.count_nonzero(np.abs(denom) >= RATIO_EXCLUSION_FLOOR))
    if n_used == 0:
        raise DegenerateSampleError(f"all {n_paths} paths excluded at n={n}")
    if n_used < n_paths:
        keep = np.abs(denom) >= RATIO_EXCLUSION_FLOOR
        numer, denom = numer[keep], denom[keep]
    z = numer / denom  # a new array, never a cursor buffer: overwritten below
    mean, lo, hi = float(np.mean(z)), float(np.min(z)), float(np.max(z))
    np.subtract(z, PHI, out=z)
    n_near = int(np.count_nonzero(np.abs(z, out=z) <= PHI_TOLERANCE))
    return RatioStats(n=n, mean=mean, min=lo, max=hi, frac_near_phi=n_near / n_used,
                      n_used=n_used, n_excluded=n_paths - n_used)


def ks_distance(run: SimulationRun, n: int, target_cdf, which: str = "y") -> float:
    """Kolmogorov-Smirnov distance between the empirical law of the
    standardized member (which='y') or standardized partial sum (which='s')
    at index n and a target cdf F.

    The statistic is max_i |i/N - F(x_(i))| over the sorted sample, so a
    sample scores exactly 0 against its own empirical cdf. It can read up to
    1/N below the two-sided D_N (0.0870 against 0.0970 at N = 100); the
    switch to D_N waits on the benchmark, whose oracle recomputes this form.
    Warns when fewer than 100 paths back the empirical cdf.
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
    sample.sort()  # the sample is this call's own array
    f = np.asarray(target_cdf(sample), dtype=np.float64)
    steps = np.arange(1, sample.size + 1) / sample.size
    np.subtract(steps, f, out=steps)
    return float(np.max(np.abs(steps, out=steps)))
