"""Monte Carlo engine: path generation, ratio statistics, and KS distances.

Each path draws its two seed values from a dedicated substream: path i reads
counter block i of a Philox generator keyed by the run seed, a fixed block
of four raw words per path, of which each seed family turns into uniforms
only those it uses. Results are therefore bit-identical no matter how the
draws are split, so these whole-array passes run through one helper,
_in_parts, that spreads parts of the paths over every CPU the process may
use: the draws, each thread into its own rows of one column-major array,
and cursor walks, each thread walking its own rows through every step, with
the ratio statistics fused in on nodes of numpy's pairwise summation tree,
whose sums are added in the tree's order.
Every row sees the same operations in the same order whatever the thread
count, so no result depends on it. The threads other than the caller's
come from one standard-library thread pool, built on the first pass that
needs it and kept for the passes after it; a forked child builds its own.

The summary's per-index means and variances come from the seed pairs' sample
moments, summed afresh on each call, leaf by leaf on the calling thread.
Member reads, partial sums, ratio statistics and sample_path share one
forward cursor over the index, moved by one walk, SimulationRun._members:
reading members in ascending n costs one array addition per index, and
reading a smaller n restarts the walk from the seed pairs. A partial sum
through member n is read off the cursor as member n + 2 less member 1, by
a_0 + ... + a_n = a_{n+2} - 1, so partial sums read in ascending n cost one
step per index too. The cursor makes a run stateful, so a run must not be
shared across threads. A KS distance calls the target cdf on the sorted
sample's block edges, then only on the blocks that can hold the sup."""

import contextvars
import functools
import json
import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, KsUnreliableWarning
from .fib_core import PHI, fib
from .marginal import FsrvModel, LinearForm, member_form, sum_form

#: Raw Philox words reserved per path: two per seed draw.
_BLOCK = 4

#: Paths per part of a whole-array pass, divided among its threads: bounds
#: the raw words of a draw in flight at 2 MB whatever the path count.
_CHUNK_PATHS = 1 << 16

#: Path-steps (paths times steps, counted from where a cursor walk begins)
#: from which the walk runs on every CPU. Handing parts to the pool's threads
#: costs about 40 us a pass, so the walk must be long enough to repay it.
#: Medians on 2 CPUs, threaded against the calling thread alone: at 2.5e5
#: paths, 1 step 0.98x the time, 2 steps 0.72x, 3 steps 0.63x; at 1.4e5
#: paths, 2 steps 0.80x, 3 steps 0.72x, 4 steps 0.85x; at 7e4 paths, whose
#: rows stay in cache, 6 steps 0.97x, 8 steps 0.90x, 12 steps 0.86x; at
#: 1e6 paths, 1 step 0.71x. The former rule, four steps at any path count,
#: reads 1.03-1.14x at 7e4 paths.
_THREADED_PATH_STEPS = 500_000

#: Most values numpy's pairwise summation adds in one unrolled loop; a
#: longer run it splits in two.
_PAIRWISE_BLOCK = 128

#: Most paths per leaf of the summary's sums, whose scratch (three leaves,
#: 384 KiB) stays in cache; at least _PAIRWISE_BLOCK, so every leaf is a
#: node of numpy's own summation tree.
_LEAF = 1 << 14

#: The cgroup v2 CPU quota file, "max <period>" or "<quota> <period>" in
#: microseconds, of the cgroup mounted at the root: a container's own.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"

#: Paths whose denominator magnitude falls below this are excluded from
#: ratio statistics.
RATIO_EXCLUSION_FLOOR = 1e-12

#: Absolute distance from the golden ratio within which ratio_stats
#: counts a ratio as near it: |ratio - PHI| <= PHI_TOLERANCE.
PHI_TOLERANCE = 1e-6

#: The outermost doubles z with |fl(z - PHI)| <= PHI_TOLERANCE, where z - PHI is exact.
_PHI_LO, _PHI_HI = (z if abs(z - PHI) <= PHI_TOLERANCE else math.nextafter(z, PHI)
                    for z in (PHI - PHI_TOLERANCE, PHI + PHI_TOLERANCE))

#: Sorted points per block of ks_distance, and a margin over ulp-level errors.
_KS_BLOCK, _KS_SLACK = 32, 1e-9


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


def _draw_rows(config: SimulationConfig, start: int, rows: np.ndarray) -> None:
    """Fill rows, an (n, 2) array, with the seed pairs of paths start to
    start + n - 1. Path i reads counter block i of the keyed Philox stream,
    so the rows do not depend on how calls batch the paths."""
    bits = np.random.Philox(key=config.rng_seed, counter=start)
    words = bits.random_raw(_BLOCK * len(rows)).reshape(-1, _BLOCK)
    config.model.seed0._variates_from_words(words[:, 0:2], rows[:, 0])
    config.model.seed1._variates_from_words(words[:, 2:4], rows[:, 1])


class SimulationRun:
    """Sampled seed pairs plus derived per-index statistics.

    Everything downstream of the seed pairs is deterministic, so the run
    stores only those: the summary reads their moments, and path values
    follow the additive recursion. A forward cursor keeps members k and k+1
    of every path in two run-owned buffers, stepped in place: ascending reads
    are O(1) array additions per index, and a read below the cursor restarts
    the walk from the seeds. A partial sum through member n reads member
    n + 2 from the same cursor. In-place steps give the same IEEE sums as
    fresh additions, so results do not depend on the order of reads. Not
    safe to share across threads.
    """

    def __init__(self, config: SimulationConfig, seed_pairs: np.ndarray):
        self.config = config
        self.seed_pairs = seed_pairs
        self._k = None
        self._prev = self._cur = None

    def _check_index(self, n: int) -> None:
        if not 0 <= n <= self.config.horizon:
            raise DomainError(f"n must be in [0, {self.config.horizon}], got {n}")

    def _members(self, k: int, body=None):
        """Members k and k+1 of every path as views of the cursor buffers,
        which the next cursor move overwrites. A walk of _THREADED_PATH_STEPS
        or more path-steps runs on every CPU, each thread walking its own
        rows through every step. With body given, body(member k, member k+1)
        runs on each part _pairwise_leaves cuts, right after the part's own
        walk: one step from the cursor at k - 1, none after a restart or a
        longer move, which walk to k first. Its results come back by part; up
        to 1.5 * _CHUNK_PATHS paths, from the calling thread as one root part."""
        restart = self._k is None or k < self._k
        if body is not None and (restart or k - self._k > 1):
            self._members(k)
            restart = False
        steps = k - (0 if restart else self._k)
        prev, cur, seeds, n_paths = self._prev, self._cur, self.seed_pairs, self.config.n_paths
        if prev is None:
            prev, cur = np.empty(n_paths, seeds.dtype), np.empty(n_paths, seeds.dtype)

        def walk(start: int, stop: int):
            p, c = prev[start:stop], cur[start:stop]
            if restart:
                p[:], c[:] = seeds[start:stop, 0], seeds[start:stop, 1]
            for _ in range(steps):
                p += c
                p, c = c, p
            return None if body is None else body(p, c)

        # No cursor until every row has walked: a failed walk leaves its
        # buffers to any helper thread still stepping them, and the next read
        # restarts in fresh ones.
        self._k = self._prev = self._cur = None
        if body is not None and n_paths > 3 * _CHUNK_PATHS // 2:
            parts = _in_parts(n_paths, walk, _pairwise_leaves)
        elif body is None and steps * n_paths >= _THREADED_PATH_STEPS:
            parts = _in_parts(n_paths, walk)
        else:
            parts = {(0, n_paths): walk(0, n_paths)}
        if steps % 2:
            prev, cur = cur, prev
        self._prev, self._cur, self._k = prev, cur, k
        return (prev, cur) if body is None else parts

    def _member(self, n: int) -> np.ndarray:
        prev, cur = self._members(max(n - 1, 0))
        return prev if n == 0 else cur

    def values_at(self, n: int) -> np.ndarray:
        """Member n of every path, as a new array."""
        self._check_index(n)
        return self._member(n).copy()

    def sums_at(self, n: int) -> np.ndarray:
        """Sum of members 0..n per path, as a new array: member n + 2 less
        member 1 from n = 2 on, since a_0 + ... + a_n = a_{n+2} - 1, read
        off the cursor, which then holds members n + 1 and n + 2."""
        self._check_index(n)
        if n < 2:  # X_0, and X_0 + X_1 is X_2 exactly
            return self._member(2 * n).copy()
        return self._members(n + 1)[1] - self.seed_pairs[:, 1]

    def y_normalized(self, n: int) -> np.ndarray:
        """Standardized member n, as a new array, using its analytic moments."""
        return _standardize(self.values_at(n), member_form(self.config.model, n))

    def sums_normalized(self, n: int) -> np.ndarray:
        """Standardized partial sum through member n, as a new array."""
        return _standardize(self.sums_at(n), sum_form(self.config.model, n))

    def summary(self) -> dict:
        """Per-index empirical mean and variance from the seed pairs' moments:
        member n is c0*V0 + c1*V1, so its mean is c0*m0 + c1*m1 and its variance
        the quadratic form of the pairs' 2x2 sample covariance, summed leaf by
        leaf on the calling thread. No cursor, no BLAS call and no array of
        n_paths, so the bytes do not depend on read order, thread count or BLAS
        threads. Raises DomainError when a mean or variance overflows a double."""
        # (c0, c1) is (1, 0) at n = 0 and (a_{n-1}, a_n) after
        c1 = np.array([fib(n) for n in range(self.config.horizon + 1)], dtype=np.float64)
        c0 = np.concatenate(([1.0], c1[:-1]))
        v0, v1 = self.seed_pairs[:, 0], self.seed_pairs[:, 1]
        scale = max(self.config.n_paths - 1, 1)  # one path: every deviation is 0
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            m0, m1 = np.mean(v0), np.mean(v1)
            s00, s11, s01 = _deviation_sums(v0, v1, m0, m1) / scale
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
        byte-identical for identical configs regardless of thread count."""
        return json.dumps(self.summary(), separators=(",", ":"))


def _standardize(values: np.ndarray, form: LinearForm) -> np.ndarray:
    """values, draws of form, standardized in place by its analytic moments."""
    form = form.standardized()
    values -= form.shift
    values /= form.scale
    return values


def _pairwise(start: int, stop: int, leaf):
    """leaf(start, stop) on nodes of numpy's pairwise summation tree over
    range(start, stop), added in the tree's order: numpy halves a node of more
    than _PAIRWISE_BLOCK values, rounds the half down to a multiple of 8 and
    adds the left sum to the right, so sums of the leaves come out as the IEEE
    sum np.add.reduce gives over the whole range. leaf returns None for a node
    to split."""
    total = leaf(start, stop)
    if total is None:
        n = stop - start
        half = start + n // 2 - n // 2 % 8
        total = _pairwise(start, half, leaf) + _pairwise(half, stop, leaf)
    return total


def _deviation_sums(v0: np.ndarray, v1: np.ndarray, m0, m1) -> np.ndarray:
    """Sums of (v0 - m0)**2, (v1 - m1)**2 and (v0 - m0)*(v1 - m1), each the
    IEEE sum np.add.reduce gives over the whole array, from leaves of at
    most _LEAF paths."""
    scratch = np.empty((3, min(v0.size, _LEAF)))

    def leaf(start: int, stop: int) -> np.ndarray | None:
        n = stop - start
        if n > _LEAF:
            return None
        x = np.subtract(v0[start:stop], m0, out=scratch[0, :n])
        y = np.subtract(v1[start:stop], m1, out=scratch[1, :n])
        np.multiply(x, y, out=scratch[2, :n])
        np.multiply(x, x, out=x)
        np.multiply(y, y, out=y)
        return np.add.reduce(scratch[:, :n], axis=1)

    return _pairwise(0, v0.size, leaf)


def _usable_cpus() -> int:
    """CPUs in the affinity mask, capped by a cgroup v2 quota on the
    process's cgroup, as a container sees its own at _CPU_MAX: quota //
    period CPUs, at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    if cpus == 1:  # nothing for a quota to cap
        return cpus
    try:
        with open(_CPU_MAX) as limits:
            quota, period = limits.read().split()
    except (OSError, ValueError):  # no quota file, or not one "quota period" line
        return cpus
    if quota == "max":
        return cpus
    return min(cpus, max(int(quota) // int(period), 1))


@functools.lru_cache(maxsize=1)
def _helper_pool(helpers: int):
    """The pool of at most helpers threads, named fsrv-helper_<i>, that
    _in_parts runs on, built on the first threaded pass and kept for the
    passes after it. A call for another count replaces it. The replaced pool
    is not shut down, so a pass still in it runs to its end, and its threads
    end once no pass holds it."""
    from concurrent.futures import ThreadPoolExecutor  # on the first threaded pass, not at import

    return ThreadPoolExecutor(helpers, thread_name_prefix="fsrv-helper")


if hasattr(os, "register_at_fork"):  # no fork, so no hook, off POSIX
    # a forked child does not run the parent's threads: its first threaded pass builds a pool
    os.register_at_fork(after_in_child=_helper_pool.cache_clear)


def _chunks(n_paths: int, n_threads: int) -> list[tuple[int, int]]:
    """Parts of _CHUNK_PATHS // n_threads paths, the last one short."""
    size = _CHUNK_PATHS // n_threads
    return [(start, min(start + size, n_paths)) for start in range(0, n_paths, size)]


def _pairwise_leaves(n_paths: int, n_threads: int) -> list[tuple[int, int]]:
    """Nodes of numpy's pairwise summation tree over range(n_paths), about
    one per thread: the first nodes from the root down with at most
    n_paths // n_threads + 16 paths (a half rounded down to a multiple of 8
    leaves its right sibling up to 8 paths over), or under two pairwise
    blocks, so that no leaf holds fewer than _PAIRWISE_BLOCK paths."""
    most = max(n_paths // n_threads + 16, 2 * _PAIRWISE_BLOCK - 1)
    return _pairwise(0, n_paths, lambda start, stop: [(start, stop)] if stop - start <= most
                     else None)


def _in_parts(n_paths: int, body, split=_chunks) -> dict:
    """Call body(start, stop) on every part [start, stop) of range(n_paths)
    that split(n_paths, T) gives, and return the results by part.

    T = min(usable CPUs, ceil(n_paths / _CHUNK_PATHS)) threads run the
    parts: thread t takes parts t, t + T, ..., and the calling thread is
    thread 0. The others are threads of one standard-library pool of at
    most usable CPUs - 1, kept from pass to pass; a pass of T = 1 starts
    none. Each helper task runs in its own copy of the caller's context, so
    the caller's np.errstate holds there too. A thread stops at its next
    part once another has failed, or once the caller was interrupted while
    it waited, and the first exception is raised, with its own type, after
    every part has ended.
    """
    cpus = _usable_cpus()
    n_threads = min(cpus, -(-n_paths // _CHUNK_PATHS))
    parts = split(n_paths, n_threads)
    if n_threads == 1:  # no closure, no pool: a one-CPU pass costs what a plain call does
        return {part: body(*part) for part in parts}
    results = [None] * len(parts)
    errors = []

    # The caller waits on one lock per thread, released before the pool
    # settles the task's future: on 2 CPUs, waiting on the futures instead
    # took about 18 us more of each ratio_stats pass.
    done = [threading.Lock() for _ in range(n_threads)]

    def work(t: int) -> None:
        try:
            for i in range(t, len(parts), n_threads):
                if errors:  # another thread failed: the pass is lost
                    return
                results[i] = body(*parts[i])
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)
        finally:
            done[t].release()

    try:
        pool = _helper_pool(cpus - 1)
        for thread_done in done:
            thread_done.acquire()
        for t in range(1, n_threads):
            pool.submit(contextvars.copy_context().run, work, t)
        work(0)
        for thread_done in done:
            thread_done.acquire()
    except BaseException:  # as Ctrl-C in a wait: the helpers' remaining parts are lost
        errors.append(None)
        raise
    if errors:  # the exception, not this list, holds the frames: no cycle keeps the arrays
        del errors[1:]
        raise errors.pop()
    return dict(zip(parts, results))


def run_simulation(config: SimulationConfig, n_workers: int = 1) -> SimulationRun:
    """Draw every path's seed pair into one (n_paths, 2) column-major array.

    The parts of _in_parts are drawn on every usable CPU, each thread into
    its own rows. Every path reads its own counter block, so the pairs do
    not depend on the thread count.

    n_workers is validated for callers that pass it, and then unused: it
    changes neither the results nor the speed.
    """
    if n_workers < 1:
        raise DomainError(f"n_workers must be >= 1, got {n_workers}")
    pairs = np.empty((config.n_paths, 2), order="F")
    _in_parts(config.n_paths, lambda start, stop: _draw_rows(config, start, pairs[start:stop]))
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
    excluded a DegenerateSampleError is raised.

    The cursor's one walk, SimulationRun._members, cuts the paths where
    numpy's pairwise summation splits them, about one node of its tree per
    thread of _in_parts (the root alone up to 1.5 * _CHUNK_PATHS paths,
    where a second thread loses), and each part, on its own CPU, takes the
    cursor's one step when it sits at n - 1, divides its two members without
    copying them and returns its sum, min, max and near-phi count. The sums
    are added in the tree's order, so `mean` is the double np.mean gives
    over all paths, whatever the thread count. A call where some path is
    excluded reduces the kept paths, copied out, on the calling thread,
    since they have a tree of their own. Kept paths are counted by sign, the
    negative side only when some denominator falls short of the floor, with
    no |denom| temporary. The near-phi count compares z with the band's
    edges _PHI_LO and _PHI_HI, unless both of a part's extremes lie inside
    the band (a NaN extreme never does), when it is every path of the part.

    Where member n has a positive density at 0, as on seeds of both signs,
    the ratio has no mean (on normal01 seeds it follows a Cauchy law), so
    `mean` estimates no population value: at n = 2 with 2.5e5 paths, rng
    seeds 1 to 3 gave means of 1.364, 2.100 and 2.101, and `min` reached
    -81,696.
    """
    if n + 1 > run.config.horizon:
        raise DomainError(f"need n+1 <= horizon={run.config.horizon}, got n={n}")
    run._check_index(n)
    n_paths = run.config.n_paths
    parts = run._members(n, body=_ratio_reductions)
    if None in parts.values():  # some path is excluded
        denom, numer = run._members(n)  # the cursor sits at n: no step
        keep = np.abs(denom) >= RATIO_EXCLUSION_FLOOR
        n_used = int(np.count_nonzero(keep))
        if n_used == 0:
            raise DegenerateSampleError(f"all {n_paths} paths excluded at n={n}")
        total, lo, hi, n_near = _ratio_reductions(denom[keep], numer[keep])
    else:
        n_used = n_paths
        sums = {part: reductions[0] for part, reductions in parts.items()}
        total = _pairwise(0, n_paths, lambda start, stop: sums.get((start, stop)))
        _, los, his, nears = zip(*parts.values())
        lo = functools.reduce(np.minimum, los)  # np.minimum and np.maximum keep a NaN
        hi, n_near = functools.reduce(np.maximum, his), sum(nears)
    return RatioStats(n=n, mean=float(total / n_used), min=float(lo), max=float(hi),
                      frac_near_phi=n_near / n_used, n_used=n_used,
                      n_excluded=n_paths - n_used)


def _ratio_reductions(denom: np.ndarray, numer: np.ndarray) -> tuple | None:
    """(sum, min, max, near-phi count) of numer / denom, or None when some
    |denom| falls below RATIO_EXCLUSION_FLOOR or is NaN."""
    kept = int(np.count_nonzero(denom >= RATIO_EXCLUSION_FLOOR))
    if kept < denom.size:
        kept += int(np.count_nonzero(denom <= -RATIO_EXCLUSION_FLOOR))
        if kept < denom.size:
            return None
    z = numer / denom
    total, lo, hi = np.add.reduce(z), np.min(z), np.max(z)
    if _PHI_LO <= lo and hi <= _PHI_HI:
        n_near = z.size
    else:
        n_near = int(np.count_nonzero(z >= _PHI_LO)) - int(np.count_nonzero(z > _PHI_HI))
    return total, lo, hi, n_near


def ks_distance(run: SimulationRun, n: int, target_cdf, which: str = "y") -> float:
    """Kolmogorov-Smirnov distance between the empirical law of the
    standardized member (which='y') or standardized partial sum (which='s')
    at index n and a target cdf F.

    F must be a non-decreasing cdf, finite on the sample. The statistic is
    max_i |i/N - F(x_(i))| over the sorted sample (Massey, 1951): 0 against the
    sample's own empirical cdf. _ks_sup computes it: no term of a block [s, e)
    of _KS_BLOCK points exceeds max(e/N - F(x_s), F(x_e) - (s+1)/N), x_e the
    next block's first point or the last point, so F is called on those edges,
    then only on blocks whose bound passes the largest edge term by _KS_SLACK,
    or on every point if an edge value is not finite or decreases, as from a
    NaN sample: the full pass's double either way. It reads up to 1/N below the
    two-sided D_N (0.0870 against 0.0970 at N = 100), whose bound only adds
    F(x_e) - s/N and which waits on the benchmark revision, ROADMAP item 1.
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
    return _ks_sup(sample, target_cdf)


def _ks_sup(xs: np.ndarray, target_cdf) -> float:
    size = xs.size
    starts = np.arange(0, size, _KS_BLOCK)
    at = np.append(starts, size - 1)  # the edges' positions i - 1
    f = np.asarray(target_cdf(xs[at]), dtype=np.float64)
    best = np.max(np.abs((at + 1) / size - f))
    bounds = np.maximum((starts + _KS_BLOCK) / size - f[:-1], f[1:] - (starts + 1) / size)
    keep = (bounds + _KS_SLACK > best) | ~(np.isfinite(f).all() & (f[1:] >= f[:-1]).all())
    at = (starts[keep, None] + np.arange(_KS_BLOCK)).ravel()
    at = at[at < size]
    f = np.asarray(target_cdf(xs[at]), dtype=np.float64)
    return float(np.maximum(best, np.max(np.abs((at + 1) / size - f))))
