import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import thread as futures_thread
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsrv import simulate
from fsrv.cli import main
from fsrv.errors import DegenerateSampleError, DomainError, KsUnreliableWarning
from fsrv.fib_core import PHI, fib
from fsrv.limits import cdf_limit_exponential_closed, cdf_limit_uniform_closed
from fsrv.marginal import FsrvModel, member_form, sum_form
from fsrv.seeds import Exponential, StandardNormal, UniformUnit
from fsrv.simulate import (
    _CHUNK_PATHS,
    PHI_TOLERANCE,
    RATIO_EXCLUSION_FLOOR,
    RatioStats,
    SimulationConfig,
    SimulationRun,
    _draw_rows,
    ks_distance,
    ratio_stats,
    run_simulation,
    sample_path,
)


@pytest.fixture(scope="module")
def exp_run(exp_model):
    config = SimulationConfig(rng_seed=2024, n_paths=10**4, horizon=41, model=exp_model)
    return run_simulation(config)


def test_config_validation(exp_model):
    with pytest.raises(DomainError):
        SimulationConfig(rng_seed=1, n_paths=0, horizon=10, model=exp_model)
    with pytest.raises(DomainError):
        SimulationConfig(rng_seed=1, n_paths=10, horizon=1, model=exp_model)
    with pytest.raises(DomainError):
        SimulationConfig(rng_seed=1, n_paths=10, horizon=91, model=exp_model)
    # the Philox key is 64 bits: a seed outside them would reuse another's stream
    for rng_seed in (-1, 2**64):
        with pytest.raises(DomainError, match="rng_seed"):
            SimulationConfig(rng_seed=rng_seed, n_paths=10, horizon=10, model=exp_model)
    SimulationConfig(rng_seed=2**64 - 1, n_paths=10, horizon=10, model=exp_model)


def test_sample_path_follows_recursion(exp_model):
    config = SimulationConfig(rng_seed=7, n_paths=10, horizon=12, model=exp_model)
    run = run_simulation(config)
    paths = sample_path(run)
    assert paths.shape == (10, 13)
    assert np.array_equal(paths[:, :2], run.seed_pairs)
    for n in range(2, 13):
        assert np.array_equal(paths[:, n], paths[:, n - 1] + paths[:, n - 2])


def test_sample_path_matches_linear_form(exp_model):
    config = SimulationConfig(rng_seed=123, n_paths=5, horizon=20, model=exp_model)
    paths = sample_path(run_simulation(config))
    linear = fib(19) * paths[:, 0] + fib(20) * paths[:, 1]
    assert np.all(np.abs(paths[:, 20] - linear) <= 1e-9 * (1.0 + np.abs(paths[:, 20])))


def _drawn(config, start: int, count: int) -> np.ndarray:
    """The seed pairs of paths start..start+count-1, from one _draw_rows call."""
    rows = np.empty((count, 2), order="F")
    _draw_rows(config, start, rows)
    return rows


def _regenerated_path(config, i) -> list[float]:
    """One path redrawn from its own substream and walked with scalar adds:
    the per-path regeneration sample_path replaced, kept as its reference."""
    x0, x1 = _drawn(config, i, 1)[0]
    path = [float(x0), float(x1)]
    for _ in range(config.horizon - 1):
        path.append(path[-2] + path[-1])
    return path


@pytest.mark.parametrize("seed", ["exp", "unif", "norm", "table"])
def test_sample_path_equals_per_path_regeneration(seed, exp_model, unif_model, norm_model,
                                                  triangle_seed):
    model = {"exp": exp_model, "unif": unif_model, "norm": norm_model,
             "table": FsrvModel(triangle_seed, triangle_seed)}[seed]
    config = SimulationConfig(rng_seed=11, n_paths=_CHUNK_PATHS + 40, horizon=12, model=model)
    run = run_simulation(config)
    run.values_at(config.horizon)  # leaves the cursor at the horizon, so the walk must restart
    paths = sample_path(run)
    for i in (*range(5), *range(_CHUNK_PATHS - 3, _CHUNK_PATHS + 3), config.n_paths - 1):
        assert paths[i].tolist() == _regenerated_path(config, i)


def test_paths_out_draws_the_seeds_once(monkeypatch, tmp_path):
    calls = []
    draw = simulate._draw_rows

    def counted_draw(config, start, rows):
        calls.append((start, len(rows)))
        draw(config, start, rows)

    monkeypatch.setattr(simulate, "_draw_rows", counted_draw)
    assert main(["simulate", "--seeds", "normal01", "--paths", "2000", "--horizon", "40",
                 "--rng-seed", "1", "--paths-out", str(tmp_path / "paths.csv"),
                 "--out", str(tmp_path / "summary.csv")]) == 0
    assert calls == [(0, 2000)]


def test_forced_unit_seeds_reproduce_fibonacci(exp_model):
    config = SimulationConfig(rng_seed=0, n_paths=3, horizon=30, model=exp_model)
    run = SimulationRun(config, np.ones((3, 2)))
    for n in range(0, 31):
        assert np.all(run.values_at(n) == float(fib(n + 1)))
    zeros = SimulationRun(config, np.zeros((3, 2)))
    assert np.all(zeros.values_at(30) == 0.0)


def test_chunked_draws_align_with_per_path_draws(exp_model):
    config = SimulationConfig(rng_seed=55, n_paths=16, horizon=5, model=exp_model)
    bulk = _drawn(config, 0, 16)
    singles = np.vstack([_drawn(config, i, 1) for i in range(16)])
    assert np.array_equal(bulk, singles)


def test_run_is_deterministic_and_chunking_invariant(exp_model):
    config = SimulationConfig(rng_seed=42, n_paths=1001, horizon=25, model=exp_model)
    runs = [run_simulation(config, n_workers=w) for w in (1, 2, 4, 7)]
    baseline = runs[0].summary_json()
    for run in runs[1:]:
        assert run.summary_json() == baseline
    again = run_simulation(config, n_workers=1)
    assert again.summary_json() == baseline
    assert np.array_equal(runs[0].seed_pairs, runs[2].seed_pairs)


def test_linear_form_identity_across_paths(exp_run):
    for n in (5, 20, 41):
        values = exp_run.values_at(n)
        linear = (float(fib(n - 1)) * exp_run.seed_pairs[:, 0]
                  + float(fib(n)) * exp_run.seed_pairs[:, 1])
        assert np.max(np.abs(values - linear) / (1.0 + np.abs(values))) <= 1e-9


def test_sum_identity_across_paths(exp_run, exp_model):
    for n in (2, 11, 30):
        sums = exp_run.sums_at(n)
        law = sum_form(exp_model, n)
        closed = law.c0 * exp_run.seed_pairs[:, 0] + law.c1 * exp_run.seed_pairs[:, 1]
        assert np.max(np.abs(sums - closed) / (1.0 + np.abs(sums))) <= 1e-9


def test_empirical_moments_match_analytic(exp_run, exp_model):
    n_paths = exp_run.config.n_paths
    for n in (5, 12):
        mean, var = member_form(exp_model, n).moments()
        values = exp_run.values_at(n)
        assert abs(float(np.mean(values)) - mean) <= 4.0 * math.sqrt(var / n_paths)
        # fourth central moment of a two-exponential sum is at most 9*var^2
        assert abs(float(np.var(values, ddof=1)) - var) <= 4.0 * math.sqrt(9.0 * var * var / n_paths)


def test_moment_agreement_at_full_scale(exp_model):
    config = SimulationConfig(rng_seed=4096, n_paths=10**5, horizon=12, model=exp_model)
    run = run_simulation(config)
    for n in (3, 8, 12):
        mean, var = member_form(exp_model, n).moments()
        values = run.values_at(n)
        assert abs(float(np.mean(values)) - mean) <= 4.0 * math.sqrt(var / 10**5)
        assert abs(float(np.var(values, ddof=1)) - var) <= 4.0 * math.sqrt(9.0 * var * var / 10**5)


def test_ratio_stats_exponential_converges(exp_run):
    stats = ratio_stats(exp_run, 40)
    assert stats.n_excluded == 0
    assert stats.n_used == 10**4
    assert stats.frac_near_phi == 1.0
    assert abs(stats.min - PHI) <= 1e-6
    assert abs(stats.max - PHI) <= 1e-6
    assert abs(stats.mean - PHI) <= 1e-6


def test_ratio_stats_small_n_well_defined(exp_run):
    stats = ratio_stats(exp_run, 5)
    assert math.isfinite(stats.mean)
    assert stats.min > 0.0
    assert stats.n_used + stats.n_excluded == 10**4


def test_ratio_stats_bounds_and_degenerate(exp_model):
    config = SimulationConfig(rng_seed=1, n_paths=4, horizon=10, model=exp_model)
    run = run_simulation(config)
    with pytest.raises(DomainError):
        ratio_stats(run, 10)  # needs n+1 <= horizon
    for read in (run.values_at, run.sums_at):
        for n in (-1, 11):
            with pytest.raises(DomainError, match=rf"n must be in \[0, 10\], got {n}"):
                read(n)
    degenerate = SimulationRun(config, np.zeros((4, 2)))
    with pytest.raises(DegenerateSampleError):
        ratio_stats(degenerate, 5)


def test_normal_seed_ratio_exclusions_are_reported(norm_model):
    config = SimulationConfig(rng_seed=5, n_paths=2000, horizon=41, model=norm_model)
    run = run_simulation(config)
    stats = ratio_stats(run, 40)
    assert stats.n_used + stats.n_excluded == 2000
    assert 0.0 <= stats.frac_near_phi <= 1.0


def test_ks_against_own_empirical_is_zero(exp_run, exp_model):
    sample = np.sort(exp_run.y_normalized(30))

    def own_ecdf(xs):
        return np.searchsorted(sample, xs, side="right") / sample.size

    assert ks_distance(exp_run, 30, own_ecdf, which="y") == 0.0


def test_ks_distance_warns_on_tiny_samples(exp_model):
    config = SimulationConfig(rng_seed=3, n_paths=50, horizon=31, model=exp_model)
    run = run_simulation(config)
    with pytest.warns(KsUnreliableWarning):
        ks_distance(run, 30, cdf_limit_exponential_closed, which="y")


def test_ks_distance_validates_which(exp_run):
    with pytest.raises(DomainError):
        ks_distance(exp_run, 30, cdf_limit_exponential_closed, which="bogus")


class _CountedCdf:
    """A target cdf that records how many points each call receives."""

    def __init__(self, cdf):
        self.cdf, self.points = cdf, []

    def __call__(self, xs):
        self.points.append(np.size(xs))
        return self.cdf(xs)


def _ks_targets(sample: np.ndarray) -> dict:
    """Targets of the pruned-sup tests; the empirical one is the sample's own step cdf."""
    xs = np.sort(sample)
    return {"exp": cdf_limit_exponential_closed, "unif": cdf_limit_uniform_closed,
            "norm": pytest.importorskip("scipy.stats").norm.cdf,
            "ecdf": lambda x: np.searchsorted(xs, x, side="right") / xs.size,
            "decreasing": lambda x: 1.0 - cdf_limit_exponential_closed(x)}


_B = simulate._KS_BLOCK


@settings(max_examples=80, deadline=None)
@given(size=st.one_of(st.integers(1, 8 * _B + 1),
                      st.sampled_from([k * _B + d for k in range(1, 9) for d in (-1, 0, 1)])),
       seed=st.integers(0, 2**32), decimals=st.sampled_from((None, 2, 1, 0)),
       nans=st.integers(0, 2),
       target=st.sampled_from(("exp", "unif", "norm", "ecdf", "decreasing")))
def test_pruned_ks_sup_equals_a_full_pass(size, seed, decimals, nans, target):
    rng = np.random.default_rng(seed)
    sample = rng.standard_normal(size) * rng.uniform(0.1, 3.0) + rng.uniform(-1.0, 1.0)
    if decimals is not None:  # rounding makes heavy ties
        sample = np.round(sample, decimals)
    sample[rng.integers(0, size, nans)] = np.nan
    cdf = _CountedCdf(_ks_targets(sample)[target])
    xs = np.sort(sample)
    got = simulate._ks_sup(xs, cdf)
    assert np.float64(got).tobytes() == np.float64(_reference_ks(sample, cdf.cdf)).tobytes()
    edges = np.append(np.arange(0, size, _B), size - 1)
    assert cdf.points[0] == edges.size
    f = cdf.cdf(xs[edges])
    if not (np.isfinite(f).all() and (np.diff(f) >= 0).all()):
        assert cdf.points[1:] == [size]  # the fallback: one full pass


def test_a_nan_sample_or_a_decreasing_target_takes_the_full_pass():
    sample = np.random.default_rng(5).standard_normal(200)
    with_nan = np.append(sample, np.nan)
    for xs, target in ((sample, lambda x: 1.0 - cdf_limit_exponential_closed(x)),
                       (with_nan, cdf_limit_exponential_closed)):
        cdf = _CountedCdf(target)
        got = simulate._ks_sup(np.sort(xs), cdf)
        assert cdf.points == [-(-xs.size // _B) + 1, xs.size]
        assert repr(got) == repr(_reference_ks(xs, target))
    assert math.isnan(got)


@pytest.mark.parametrize("target", ["exp", "unif", "norm", "ecdf", "decreasing"])
@pytest.mark.parametrize("which", ["y", "s"])
def test_pruned_ks_distance_of_a_run_equals_a_full_pass(exp_run, which, target):
    sample = exp_run.y_normalized(30) if which == "y" else exp_run.sums_normalized(30)
    cdf = _ks_targets(sample)[target]
    assert ks_distance(exp_run, 30, cdf, which=which) == _reference_ks(sample, cdf)


def test_ks_distance_evaluates_few_target_points(exp_model):
    # machine-independent: a run falling back to the full pass calls the
    # target on all 1e5 points
    config = SimulationConfig(rng_seed=11, n_paths=10**5, horizon=31, model=exp_model)
    run = run_simulation(config)
    for which in ("y", "s"):
        cdf = _CountedCdf(cdf_limit_exponential_closed)
        ks = ks_distance(run, 30, cdf, which=which)
        sample = run.y_normalized(30) if which == "y" else run.sums_normalized(30)
        assert ks == _reference_ks(sample, cdf_limit_exponential_closed)
        assert len(cdf.points) == 2
        assert sum(cdf.points) <= config.n_paths // 8, cdf.points


def test_summary_contents(exp_model):
    config = SimulationConfig(rng_seed=9, n_paths=500, horizon=10, model=exp_model)
    run = run_simulation(config)
    summary = run.summary()
    assert summary["rng_seed"] == 9
    assert summary["seed0"] == "exp:1"
    assert len(summary["mean"]) == 11
    mean, var = member_form(exp_model, 10).moments()
    assert abs(summary["mean"][10] - mean) <= 4.0 * math.sqrt(var / 500)


def test_summary_overflow_is_a_domain_error():
    # members of exp:1e-150 paths overflow from member 21 on; the summary
    # used to hold inf and nan and warn about it
    model = FsrvModel(Exponential(1e-150), Exponential(1e-150))
    run = run_simulation(SimulationConfig(rng_seed=1, n_paths=3, horizon=90, model=model))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="member 21 overflows"):
            run.summary()


@pytest.mark.parametrize("seed", ["exp", "unif", "norm", "table"])
def test_summary_matches_direct_reductions(seed, exp_model, unif_model, norm_model,
                                           triangle_seed):
    model = {"exp": exp_model, "unif": unif_model, "norm": norm_model,
             "table": FsrvModel(triangle_seed, triangle_seed)}[seed]
    config = SimulationConfig(rng_seed=5, n_paths=_CHUNK_PATHS + 40, horizon=90, model=model)
    run = run_simulation(config)
    summary = run.summary()
    members = sample_path(run).T
    means = np.array([np.mean(values) for values in members])
    variances = np.array([np.var(values, ddof=1) for values in members])
    assert np.all(np.abs(np.array(summary["mean"]) - means) <= 1e-12 * np.sqrt(variances))
    assert np.all(np.abs(np.array(summary["variance"]) - variances) <= 1e-12 * variances)


def test_one_path_summary_has_zero_variance(exp_model):
    config = SimulationConfig(rng_seed=3, n_paths=1, horizon=90, model=exp_model)
    run = run_simulation(config)
    summary = run.summary()
    assert summary["variance"] == [0.0] * 91
    assert summary["mean"][:2] == run.seed_pairs[0].tolist()


def test_summary_reads_the_seed_pairs_not_the_cursor(monkeypatch, exp_model):
    run = run_simulation(SimulationConfig(rng_seed=4, n_paths=100, horizon=40, model=exp_model))

    def walk(k):
        raise AssertionError("summary() walked the recursion")

    monkeypatch.setattr(run, "_members", walk)
    assert len(run.summary()["mean"]) == 41
    assert run.summary_json() == json.dumps(run.summary(), separators=(",", ":"))


_EDGE_VALUES = (np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -1e-300, 1e300, -1e16, 1.0)


def _whole_array_sums(v0, v1, m0, m1) -> np.ndarray:
    """The summary's sums as whole-length temporaries gave them."""
    d0, d1 = v0 - m0, v1 - m1
    return np.array([np.add.reduce(d0 * d0), np.add.reduce(d1 * d1), np.add.reduce(d0 * d1)])


@settings(max_examples=60, deadline=None)
@given(size=st.one_of(st.integers(1, 300), st.integers(1, 3 * simulate._LEAF + 17)),
       leaf=st.sampled_from((simulate._LEAF, 128)), seed=st.integers(0, 2**32),
       edges=st.lists(st.sampled_from(_EDGE_VALUES), max_size=6),
       means=st.one_of(st.none(), st.tuples(st.sampled_from(_EDGE_VALUES),
                                            st.floats(allow_nan=False))))
# one NaN of each sign among the deviations: the leaf tree kept +nan, numpy -nan
@example(size=571, leaf=128, seed=284, edges=[np.inf, np.inf, np.nan], means=(np.inf, 0.0))
def test_leaf_sums_equal_whole_array_reductions(size, leaf, seed, edges, means):
    assert simulate._LEAF >= 128, "a leaf below numpy's pairwise block is not a node of its tree"
    rng = np.random.default_rng(seed)
    pairs = np.asfortranarray(rng.standard_normal((size, 2))
                              * 10.0 ** rng.integers(-30, 30, (size, 2)))
    pairs.flat[rng.integers(0, pairs.size, len(edges))] = edges
    v0, v1 = pairs[:, 0], pairs[:, 1]
    with np.errstate(all="ignore"):
        m0, m1 = (np.mean(v0), np.mean(v1)) if means is None else means
        expected = _whole_array_sums(v0, v1, m0, m1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_LEAF", leaf)
            sums = simulate._deviation_sums(v0, v1, m0, m1)
    # which sign a NaN sum keeps depends on the order its NaNs meet, and
    # summary() refuses any non-finite sum, so only NaN-ness is compared there
    nan = np.isnan(sums) & np.isnan(expected)
    assert sums[~nan].tobytes() == expected[~nan].tobytes(), (
        "the leaf sums no longer match np.add.reduce: numpy's pairwise summation may have changed")


# sha256 of two summaries of many leaves, recorded while the summary still
# summed whole-length deviation arrays: the leaves kept every byte.
_MULTI_LEAF_DIGESTS = [
    (["--seeds", "exp:1", "--paths", "100003", "--horizon", "90", "--rng-seed", "3",
      "--output", "json"],
     "d88f9726ffe03759a1618da8e0c4d6ab283b8fda4815cee7220f3f0062af1847"),
    (["--seeds", "normal01", "--paths", "70001", "--horizon", "60", "--rng-seed", "9",
      "--output", "csv"],
     "81e9c407fc6972efd7eb8a2fd95a67f84f3c8c67713da6019003e913bf4a90a1"),
]


@pytest.mark.parametrize("argv,sha", _MULTI_LEAF_DIGESTS, ids=["exp_json", "normal_csv"])
def test_multi_leaf_summaries_are_pinned(capsys, argv, sha):
    assert main(["simulate", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


def test_summary_allocates_no_array_of_the_paths(exp_model):
    # numpy reports its buffers to tracemalloc; one array of 2e5 paths is 1.6 MB
    run = run_simulation(SimulationConfig(rng_seed=2, n_paths=200_000, horizon=90,
                                          model=exp_model))
    tracemalloc.start()
    try:
        run.summary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _reference_members(pairs: np.ndarray, horizon: int) -> list[np.ndarray]:
    members = [pairs[:, 0].copy(), pairs[:, 1].copy()]
    for _ in range(horizon - 1):
        members.append(members[-2] + members[-1])
    return members


def _reference_ratio_stats(members: list[np.ndarray], n: int) -> RatioStats:
    denom, numer = members[n], members[n + 1]
    keep = np.abs(denom) >= RATIO_EXCLUSION_FLOOR
    z = numer[keep] / denom[keep]
    return RatioStats(n=n, mean=float(np.mean(z)), min=float(np.min(z)), max=float(np.max(z)),
                      frac_near_phi=float(np.mean(np.abs(z - PHI) <= PHI_TOLERANCE)),
                      n_used=int(z.size), n_excluded=int(np.sum(~keep)))


_HORIZON = 24
_QUERIES = st.lists(st.tuples(st.sampled_from(("values", "sums", "ratio", "y", "s", "ks")),
                              st.integers(0, _HORIZON)), min_size=1, max_size=12)


def _reference_ks(sample: np.ndarray, target_cdf) -> float:
    xs = np.sort(sample)
    return float(np.max(np.abs(np.arange(1, xs.size + 1) / xs.size - target_cdf(xs))))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(("exp", "unif", "norm", "tri")), rng_seed=st.integers(0, 2**32),
       queries=_QUERIES, order=st.sampled_from(("drawn", "ascending", "descending")))
def test_any_read_order_matches_fresh_recursion(exp_model, unif_model, norm_model,
                                                triangle_seed, family, rng_seed, queries, order):
    model = {"exp": exp_model, "unif": unif_model, "norm": norm_model,
             "tri": FsrvModel(triangle_seed, triangle_seed)}[family]
    config = SimulationConfig(rng_seed=rng_seed, n_paths=37, horizon=_HORIZON, model=model)
    run = run_simulation(config)
    members = _reference_members(run.seed_pairs, _HORIZON)
    sums = list(itertools.accumulate(members))
    if order != "drawn":
        queries = sorted(queries, key=lambda q: q[1], reverse=order == "descending")
    for kind, n in queries:
        if kind == "values":
            assert np.array_equal(run.values_at(n), members[n])
        elif kind == "sums":
            assert np.array_equal(run.sums_at(n), sums[n])
        elif kind == "ratio":
            n = min(n, _HORIZON - 1)
            assert ratio_stats(run, n) == _reference_ratio_stats(members, n)
        else:  # the standardized reads start at member 2
            n = max(n, 2)
            mean, variance = member_form(model, n).moments()
            y = (members[n] - mean) / math.sqrt(variance)
            standard = sum_form(model, n).standardized()
            s = (sums[n] - standard.shift) / standard.scale
            if kind == "y":
                assert np.array_equal(run.y_normalized(n), y)
            elif kind == "s":
                assert np.array_equal(run.sums_normalized(n), s)
            else:
                for which, sample in (("y", y), ("s", s)):
                    with pytest.warns(KsUnreliableWarning):
                        ks = ks_distance(run, n, cdf_limit_exponential_closed, which=which)
                    assert ks == _reference_ks(sample, cdf_limit_exponential_closed)
            # the cursor sits at member n - 1 or n: these reads step from its
            # buffers, so a write that landed on them shows here
            later = min(n + 1, _HORIZON)
            assert np.array_equal(run.values_at(n), members[n])
            assert np.array_equal(run.values_at(later), members[later])


def _phi_band_edges() -> list[tuple[float, float]]:
    """Below and above PHI: the outermost ratio z with |fl(z - PHI)| <= PHI_TOLERANCE,
    and the next double out."""
    edges = []
    for out in (-np.inf, np.inf):
        z = PHI + math.copysign(PHI_TOLERANCE, out)
        while abs(z - PHI) > PHI_TOLERANCE:
            z = float(np.nextafter(z, PHI))
        while abs(np.nextafter(z, out) - PHI) <= PHI_TOLERANCE:
            z = float(np.nextafter(z, out))
        edges.append((z, float(np.nextafter(z, out))))
    return edges


def test_the_near_phi_band_constants_are_its_edges():
    (lo_in, _), (hi_in, _) = _phi_band_edges()
    assert (simulate._PHI_LO, simulate._PHI_HI) == (lo_in, hi_in)


def _ratio_edge_cases() -> list[np.ndarray]:
    """Runs whose member-1/member-0 ratios sit on the near-phi band's edges, all
    inside, all outside or both, and runs whose denominators sit on the floor."""
    (lo_in, lo_out), (hi_in, hi_out) = _phi_band_edges()
    ratio_sets = [(lo_in, hi_in), (lo_in, PHI, hi_out), (lo_out, hi_in), (hi_out, 2.0),
                  (hi_in, 2.0), (lo_out, 1.0), (lo_in, 1.0)]
    runs = [np.column_stack((np.ones(len(z)), z)) for z in ratio_sets]
    below_floor = float(np.nextafter(RATIO_EXCLUSION_FLOOR, 0.0))
    for sign in (1.0, -1.0):
        for v0 in (RATIO_EXCLUSION_FLOOR, below_floor):
            runs.append(sign * np.array([[v0, 1.0], [1.0, 1.0]]))
    runs += [np.array(p) for p in ([[np.inf, np.inf], [1.0, 2.0]], [[1.0, np.nan], [1.0, 2.0]],
                                   [[-np.inf, 1.0], [-1.0, -2.0]])]
    return runs


def test_ratio_stats_exclusions_match_the_masked_reference(exp_model):
    # zeros, a denominator below the floor for n <= 7, NaN, +inf and inf - inf
    special = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, -1.0], [1e-13, 0.0], [np.nan, 1.0],
                        [1.0, np.inf], [np.inf, -np.inf], [0.0, 0.0], [3.0, 5.0]])
    # with and without excluded paths, and on the edges of both shortcuts
    for pairs in (special, special[[0, 5, 8]], *_ratio_edge_cases()):
        config = SimulationConfig(rng_seed=1, n_paths=len(pairs), horizon=10, model=exp_model)
        run = SimulationRun(config, pairs)
        with np.errstate(invalid="ignore", over="ignore"):
            members = _reference_members(pairs, 10)
            for n in range(10):  # repr, so that a NaN mean compares equal
                assert repr(ratio_stats(run, n)) == repr(_reference_ratio_stats(members, n))
    config = SimulationConfig(rng_seed=1, n_paths=3, horizon=10, model=exp_model)
    nan_run = SimulationRun(config, np.array([[0.0, 0.0], [np.nan, 1.0], [1e-13, 0.0]]))
    with pytest.raises(DegenerateSampleError, match=r"^all 3 paths excluded at n=0$"):
        ratio_stats(nan_run, 0)


def test_ratio_stats_copies_no_member(exp_model):
    # numpy reports its buffers to tracemalloc; with no path excluded the
    # statistics need the ratio (8 bytes a path) and one boolean mask at a time
    config = SimulationConfig(rng_seed=3, n_paths=_CHUNK_PATHS + 40, horizon=41, model=exp_model)
    run = run_simulation(config)
    assert ratio_stats(run, 20).n_excluded == 0  # the cursor now sits at member 20
    tracemalloc.start()
    try:
        stats = ratio_stats(run, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == _reference_ratio_stats(_reference_members(run.seed_pairs, 21), 20)
    assert peak <= 10 * config.n_paths + 65536


def test_values_at_returns_a_private_copy(exp_model):
    config = SimulationConfig(rng_seed=8, n_paths=50, horizon=20, model=exp_model)
    run = run_simulation(config)
    members = _reference_members(run.seed_pairs, 20)
    for n in (0, 1, 5, 6):
        run.values_at(n)[:] = -1.0
    assert np.array_equal(run.values_at(7), members[7])
    assert np.array_equal(run.values_at(6), members[6])
    assert ratio_stats(run, 12) == _reference_ratio_stats(members, 12)


def _pretend_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(simulate, "_CPU_MAX", "")  # no cgroup quota caps the pretence


def _helpers(threads=None) -> list[threading.Thread]:
    """The threads of the pools _in_parts runs on, among threads (by default
    every live thread)."""
    return [thread for thread in threads or threading.enumerate()
            if thread.name.startswith("fsrv-helper")]


@contextlib.contextmanager
def _helpers_bounded(cpus: int):
    """The passes in the block start no thread but the pool's helpers, and no
    more of those than the cpus - 1 that a pass on cpus CPUs may need. A
    pool the block replaced ends its threads, so they are waited for."""
    threads = threading.enumerate()
    helpers = len(_helpers(threads))
    yield
    deadline = time.monotonic() + 30
    while len(_helpers(after := threading.enumerate())) > max(helpers, cpus - 1):
        assert time.monotonic() < deadline
        time.sleep(0.001)
    assert len(after) - len(threads) == len(_helpers(after)) - helpers


def _wait_idle(helper: threading.Thread) -> None:
    """Wait until the helper has ended its task and waits for the next."""
    deadline = time.monotonic() + 30
    while sys._current_frames()[helper.ident].f_code is not futures_thread._worker.__code__:
        assert time.monotonic() < deadline
        time.sleep(0.001)


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_chunked_run_matches_one_draw(monkeypatch, norm_model, cpus):
    # four chunks and a partial one at any thread count
    n_paths = 3 * _CHUNK_PATHS + 12345
    config = SimulationConfig(rng_seed=31, n_paths=n_paths, horizon=5, model=norm_model)
    _pretend_cpus(monkeypatch, cpus)
    drawing = []

    def late_helper_draw(*args):  # rows a helper writes late show unless the pass waits
        drawing.append(args[1])
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.02)
        _draw_rows(*args)
        drawing.remove(args[1])

    monkeypatch.setattr(simulate, "_draw_rows", late_helper_draw)
    with _helpers_bounded(cpus):
        run = run_simulation(config)
        assert drawing == []  # no part of the pass is still running
        helpers = _helpers()
        again = run_simulation(config)
        assert drawing == [] and _helpers() == helpers  # the next pass reuses them
    one_draw = _drawn(config, 0, n_paths)
    assert np.array_equal(run.seed_pairs, one_draw)
    assert run.seed_pairs.tobytes() == one_draw.tobytes()
    assert again.seed_pairs.tobytes() == one_draw.tobytes()


def test_back_to_back_passes_start_no_thread_after_the_first(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    def passes(count: int, body) -> int:
        for _ in range(count):  # one part a thread, three threads on three CPUs
            simulate._in_parts(2 * _CHUNK_PATHS + 1, body,
                               lambda n_paths, threads: [(t, t + 1) for t in range(threads)])
        return len(started)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    _pretend_cpus(monkeypatch, 3)
    together = threading.Barrier(3, timeout=30)  # each pass runs its parts on three threads
    with _helpers_bounded(3):
        first = passes(1, lambda start, stop: together.wait())
        assert passes(199, lambda start, stop: together.wait()) == first <= 2
    _pretend_cpus(monkeypatch, 1)
    assert passes(1, lambda start, stop: None) == first


def test_cpu_count_without_affinity_masks(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(simulate, "_CPU_MAX", "")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert simulate._usable_cpus() == 3


def test_a_helper_failure_is_raised_after_every_thread_ends(monkeypatch, exp_model):
    _pretend_cpus(monkeypatch, 2)
    draw = simulate._draw_rows
    calls = {"helper": [], "main": []}
    may_fail, failed, helper, waited = threading.Event(), threading.Event(), [], []

    def failing_draw(config, start_path, rows):
        if threading.current_thread() is not threading.main_thread():
            assert may_fail.wait(timeout=30)
            calls["helper"].append(start_path)
            helper.append(threading.current_thread())
            failed.set()
            raise MemoryError("no room for a chunk")
        calls["main"].append(start_path)
        if len(calls["main"]) == 2:  # past its check: let the helper fail, and wait for it
            may_fail.set()
            assert failed.wait(timeout=30)
            _wait_idle(helper[0])
            waited.append(helper[0])  # an assert above would hide behind the MemoryError
        draw(config, start_path, rows)

    monkeypatch.setattr(simulate, "_draw_rows", failing_draw)
    config = SimulationConfig(rng_seed=4, n_paths=4 * _CHUNK_PATHS, horizon=5, model=exp_model)
    gc.collect()
    gc.disable()
    try:
        with _helpers_bounded(2), pytest.raises(MemoryError, match="^no room for a chunk$"):
            run_simulation(config)
        assert gc.collect() == 0  # no cycle through the threads' frames keeps the pairs
    finally:
        gc.enable()
    # each thread stops at the first chunk it finds the run lost
    chunk = _CHUNK_PATHS // 2
    assert calls == {"helper": [chunk], "main": [0, 2 * chunk]}
    assert waited == helper


# sha256 of the CLI outputs, recorded before the forward cursor and the
# chunked draw replaced the per-call recursion and the per-worker slices.
# The stdout digests were re-recorded when the summary moved to the seed
# pairs' moments, which moved means and variances by rounding only; the
# --paths-out digests did not move.
_SIMULATE_DIGESTS = [
    ("exp:1", 300, 40, 11, 3,
     "b2f4d050bf0dcf4c7af199af34876139300eea0f981ab2e6f1a0fc2f3466100d",
     "7a009a3c7ff7ea7b63166a4c9b4e2f38e41802b10b6ecdf6f555134f6a343741"),
    ("normal01", 200, 30, 12, 2,
     "9716325c2ac5c29a279921fb9b3cc923c8d7970c315dd5ce8874e67a36e618a3",
     "ab767d8112c07b9f1ecf3c54994fe94ff5ed0a9be1999d4bd42e77c3a54c5136"),
]


@pytest.mark.parametrize("seeds,paths,horizon,rng_seed,workers,stdout_sha,paths_sha",
                         _SIMULATE_DIGESTS, ids=["exp", "normal"])
def test_simulate_outputs_are_pinned(capsys, tmp_path, seeds, paths, horizon, rng_seed,
                                     workers, stdout_sha, paths_sha):
    paths_out = tmp_path / "paths.csv"
    code = main(["simulate", "--seeds", seeds, "--paths", str(paths), "--horizon", str(horizon),
                 "--rng-seed", str(rng_seed), "--workers", str(workers), "--output", "json",
                 "--paths-out", str(paths_out)])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(paths_out.read_bytes()).hexdigest() == paths_sha


def _oracle_variates(dist, u: np.ndarray) -> np.ndarray:
    """The maps from (n, 2) uniform blocks that the raw-word maps replaced."""
    if isinstance(dist, Exponential):
        return -np.log1p(-u[:, 0]) / dist.rate
    if isinstance(dist, UniformUnit):
        return u[:, 0].copy()
    if isinstance(dist, StandardNormal):
        return np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * math.pi * u[:, 1])
    u = u[:, 0]  # a table: its piecewise-quadratic cdf inverted panel by panel
    i = np.clip(np.searchsorted(dist.node_cdf, u, side="right") - 1, 0, dist.nodes.size - 2)
    rem = np.maximum(u - dist.node_cdf[i], 0.0)
    y0 = dist.nodes[i]
    slope = (dist.nodes[i + 1] - y0) / dist.step
    denom = y0 + np.sqrt(np.maximum(y0 * y0 + 2.0 * slope * rem, 0.0))
    t = np.divide(2.0 * rem, denom, out=np.zeros_like(rem), where=denom > 0)
    return dist.lo + i * dist.step + np.clip(t, 0.0, dist.step)


def _oracle_pairs(config, start: int, count: int) -> np.ndarray:
    """Seed pairs from four uniform doubles per path, drawn by a Generator."""
    gen = np.random.Generator(np.random.Philox(key=config.rng_seed, counter=start))
    u = gen.random(4 * count).reshape(count, 4)
    return np.column_stack((_oracle_variates(config.model.seed0, u[:, 0:2]),
                            _oracle_variates(config.model.seed1, u[:, 2:4])))


@pytest.mark.parametrize("families", [("exp", "unif"), ("unif", "norm"), ("norm", "table"),
                                      ("table", "exp")])
def test_raw_word_draws_match_the_uniform_oracle(monkeypatch, triangle_seed, families):
    laws = {"exp": Exponential(2.5), "unif": UniformUnit(), "norm": StandardNormal(),
            "table": triangle_seed}
    model = FsrvModel(*(laws[f] for f in families))
    _pretend_cpus(monkeypatch, 2)
    # two parts at T = 2 and three at T = 1, the last partial
    config = SimulationConfig(rng_seed=2**64 - 5, n_paths=_CHUNK_PATHS + 1234, horizon=5,
                              model=model)
    assert (run_simulation(config).seed_pairs.tobytes()
            == _oracle_pairs(config, 0, config.n_paths).tobytes())
    assert _drawn(config, 123_457, 1001).tobytes() == _oracle_pairs(config, 123_457, 1001).tobytes()


_THREADED_READS = [("values", 5), ("sums", 7), ("ratio", 2), ("values", 0), ("ks", 6),
                   ("ratio", 3), ("s", 8), ("y", 4), ("values", 8), ("sums", 1), ("sums", 0),
                   ("ratio", 7), ("values", 1), ("sums", 2)]


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_threaded_reads_match_the_references(monkeypatch, exp_model, cpus):
    # four parts and a partial one at any thread count
    horizon = 8
    config = SimulationConfig(rng_seed=77, n_paths=3 * _CHUNK_PATHS + 12345, horizon=horizon,
                              model=exp_model)
    _pretend_cpus(monkeypatch, 1)
    pairs = run_simulation(config).seed_pairs
    one_thread_summary = SimulationRun(config, pairs).summary_json()
    members = _reference_members(pairs, horizon)
    sums = list(itertools.accumulate(members))
    _pretend_cpus(monkeypatch, cpus)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter as often as they can
    try:
        with _helpers_bounded(cpus):
            _check_reads(config, pairs, members, sums)
            assert SimulationRun(config, pairs).summary_json() == one_thread_summary
    finally:
        sys.setswitchinterval(switch)


def _check_reads(config, pairs, members, sums) -> None:
    model = config.model
    for order in ("drawn", "ascending", "descending"):
        reads = _THREADED_READS
        if order != "drawn":
            reads = sorted(reads, key=lambda q: q[1], reverse=order == "descending")
        run = SimulationRun(config, pairs)
        for kind, n in reads:
            if kind == "values":
                assert run.values_at(n).tobytes() == members[n].tobytes()
            elif kind == "sums":
                assert run.sums_at(n).tobytes() == sums[n].tobytes()
            elif kind == "ratio":
                assert ratio_stats(run, n) == _reference_ratio_stats(members, n)
            else:
                mean, variance = member_form(model, n).moments()
                y = (members[n] - mean) / math.sqrt(variance)
                standard = sum_form(model, n).standardized()
                s = (sums[n] - standard.shift) / standard.scale
                if kind == "y":
                    assert run.y_normalized(n).tobytes() == y.tobytes()
                elif kind == "s":
                    assert run.sums_normalized(n).tobytes() == s.tobytes()
                else:
                    for which, sample in (("y", y), ("s", s)):
                        ks = ks_distance(run, n, cdf_limit_exponential_closed, which=which)
                        assert ks == _reference_ks(sample, cdf_limit_exponential_closed)


_SEED_LAWS = {"exp": Exponential(1.0), "unif": UniformUnit(), "norm": StandardNormal()}


@pytest.mark.parametrize("n_paths", [1, 127, 128, 129, 3 * _CHUNK_PATHS + 12345])
@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
@settings(max_examples=4, deadline=None)
@given(laws=st.tuples(st.sampled_from(sorted(_SEED_LAWS)), st.sampled_from(sorted(_SEED_LAWS))),
       rng_seed=st.integers(0, 2**32), special=st.sampled_from(("none", "zero", "nan")),
       row=st.integers(0, 2**32), zero_at=st.integers(1, 6))
@example(laws=("norm", "exp"), rng_seed=5, special="zero", row=0, zero_at=3)
@example(laws=("exp", "exp"), rng_seed=5, special="nan", row=7, zero_at=1)
def test_ratio_stats_matches_the_one_thread_reference(cpus, n_paths, laws, rng_seed, special,
                                                      row, zero_at):
    # member zero_at of the zero row is a_{m-1}*a_m - a_m*a_{m-1} = 0: the
    # fallback; the NaN row gives a NaN denominator at n = 0 and n >= 2 and a
    # NaN ratio at n = 1
    horizon = 8
    config = SimulationConfig(rng_seed=rng_seed, n_paths=n_paths, horizon=horizon,
                              model=FsrvModel(*(_SEED_LAWS[law] for law in laws)))
    with pytest.MonkeyPatch.context() as patch:
        _pretend_cpus(patch, cpus)
        pairs = run_simulation(config).seed_pairs
        if special != "none":
            pairs[row % n_paths] = ((fib(zero_at), -fib(zero_at - 1)) if special == "zero"
                                    else (np.nan, 1.0))
        members = _reference_members(pairs, horizon)
        run = SimulationRun(config, pairs)
        # ascending reads take the fused step, descending ones restart the walk
        for n in [*range(horizon), *reversed(range(horizon))]:
            with np.errstate(invalid="ignore"):  # NaN against the band
                if not (np.abs(members[n]) >= RATIO_EXCLUSION_FLOOR).any():
                    with pytest.raises(DegenerateSampleError):
                        ratio_stats(run, n)
                    continue
                # repr, so that every field compares bit for bit and a NaN equals itself
                assert repr(ratio_stats(run, n)) == repr(_reference_ratio_stats(members, n))


def test_ratio_stats_fuses_one_step_into_its_leaf_pass(monkeypatch, exp_model):
    # 2 steps of these paths pass _THREADED_PATH_STEPS, so every walk is a pass too
    _pretend_cpus(monkeypatch, 2)
    config = SimulationConfig(rng_seed=9, n_paths=4 * _CHUNK_PATHS + 99, horizon=12,
                              model=exp_model)
    run = run_simulation(config)
    members = _reference_members(run.seed_pairs, 12)
    leaves = simulate._pairwise_leaves(config.n_paths, 2)
    in_parts, reductions = simulate._in_parts, simulate._ratio_reductions
    passes, reduced = [], []

    def counted_in_parts(n_paths, body, split=simulate._chunks):
        passes.append(split)
        return in_parts(n_paths, body, split)

    def counted_reductions(denom, numer):
        reduced.append((denom.size, threading.current_thread() is threading.main_thread()))
        return reductions(denom, numer)

    monkeypatch.setattr(simulate, "_in_parts", counted_in_parts)
    monkeypatch.setattr(simulate, "_ratio_reductions", counted_reductions)
    walk_then_reduce = [simulate._chunks, simulate._pairwise_leaves]
    # a restart, one step from the cursor, none, two steps, a restart below the cursor
    for n, structure in ((5, walk_then_reduce), (6, [simulate._pairwise_leaves]),
                         (6, [simulate._pairwise_leaves]), (8, walk_then_reduce),
                         (3, walk_then_reduce)):
        passes.clear()
        reduced.clear()
        assert ratio_stats(run, n) == _reference_ratio_stats(members, n)
        assert passes == structure
        # each leaf reduced once, the even ones by the calling thread
        assert sorted(reduced) == sorted((stop - start, i % 2 == 0)
                                         for i, (start, stop) in enumerate(leaves))


def test_ratio_stats_on_few_paths_stays_on_the_calling_thread(monkeypatch, exp_model):
    _pretend_cpus(monkeypatch, 2)
    pool, submitted = simulate._helper_pool, []

    class CountedPool:
        def __init__(self, helpers: int):
            self.pool = pool(helpers)

        def submit(self, *args):
            submitted.append(args)
            return self.pool.submit(*args)

    monkeypatch.setattr(simulate, "_helper_pool", CountedPool)
    # up to 3 * _CHUNK_PATHS // 2 paths a second thread costs more than it saves
    for n_paths, threaded in ((70_000, False), (3 * _CHUNK_PATHS + 12345, True)):
        config = SimulationConfig(rng_seed=12, n_paths=n_paths, horizon=8, model=exp_model)
        pairs = run_simulation(config).seed_pairs
        members = _reference_members(pairs, 8)
        run = SimulationRun(config, pairs)
        submitted.clear()
        for n in range(8):  # from the seeds, then one step at a time
            assert ratio_stats(run, n) == _reference_ratio_stats(members, n)
        assert bool(submitted) == threaded


def test_pairwise_leaves_are_nodes_of_numpys_summation_tree():
    z = np.random.default_rng(3).standard_normal(3 * _CHUNK_PATHS + 12345) * 1e3
    for n_paths in (1, 255, 256, 257, 70_001, z.size):
        for threads in (1, 2, 3, 4, 7):
            leaves = simulate._pairwise_leaves(n_paths, threads)
            assert [start for start, _ in leaves] == [0, *(stop for _, stop in leaves[:-1])]
            assert leaves[-1][1] == n_paths
            assert threads <= len(leaves) < 2 * threads or n_paths < 2 * threads * 128
            assert min(stop - start for start, stop in leaves) >= min(n_paths, 128)
            sums = {(start, stop): np.add.reduce(z[start:stop]) for start, stop in leaves}
            total = simulate._pairwise(0, n_paths, lambda start, stop: sums.get((start, stop)))
            assert total.tobytes() == np.add.reduce(z[:n_paths]).tobytes()


@pytest.mark.parametrize("cpu_max,cpus", [(None, 7), ("max 100000\n", 7), ("400000 100000\n", 4),
                                          ("150000 100000\n", 1), ("50000 100000\n", 1),
                                          ("900000 100000\n", 7), ("", 7), ("max\n", 7)])
def test_usable_cpus_honour_a_cgroup_quota(monkeypatch, tmp_path, cpu_max, cpus):
    _pretend_cpus(monkeypatch, 7)
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    monkeypatch.setattr(simulate, "_CPU_MAX", str(path))
    assert simulate._usable_cpus() == cpus


def test_without_a_quota_file_the_cpus_are_the_affinity_mask():
    if os.path.exists(simulate._CPU_MAX):
        pytest.skip("this host has a cgroup v2 quota file")
    assert simulate._usable_cpus() == len(os.sched_getaffinity(0))


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(simulate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


# a threaded draw and ratio sweep on two pretend CPUs
_SWEEP = """
    import os, sys, threading, time
    from fsrv import simulate
    from fsrv.marginal import exponential_model

    os.sched_getaffinity = lambda pid: {0, 1}
    simulate._CPU_MAX = ""
    config = simulate.SimulationConfig(rng_seed=5, n_paths=2 * simulate._CHUNK_PATHS + 7,
                                       horizon=12, model=exponential_model())

    def sweep():
        run = simulate.run_simulation(config)
        return [run.seed_pairs.tobytes()] + [repr(simulate.ratio_stats(run, n)) for n in range(11)]

    def helpers():
        return [t for t in threading.enumerate() if t.name.startswith("fsrv-helper")]

    want = sweep()
    assert len(helpers()) == 1
"""


def test_a_forked_child_runs_threaded_passes_on_helpers_of_its_own():
    result = _run_python(_SWEEP + """
    pid = os.fork()
    if pid == 0:  # the parent's helper does not run here
        ok = sweep() == want and len(helpers()) == 1
        os._exit(0 if ok else 3)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            sys.exit("the forked child hung")
        time.sleep(0.01)
    sys.exit(os.waitstatus_to_exitcode(status[1]))
    """)
    assert result.returncode == 0, result.stderr


def test_idle_helpers_do_not_keep_the_process_alive():
    started = time.monotonic()
    result = _run_python(_SWEEP)
    assert result.returncode == 0, result.stderr
    assert time.monotonic() - started < 60


def test_helpers_keep_the_callers_errstate(monkeypatch, exp_model):
    # inf - inf is invalid and 1e308 + 1e308 overflows, in every part
    pairs = np.asfortranarray(np.tile([[np.inf, -np.inf], [1e308, 1e308], [1.0, 2.0]],
                                      (_CHUNK_PATHS, 1)))
    config = SimulationConfig(rng_seed=1, n_paths=len(pairs), horizon=10, model=exp_model)
    reads = {}
    for cpus in (1, 2):  # three parts at T = 1, six at T = 2
        _pretend_cpus(monkeypatch, cpus)
        run = SimulationRun(config, pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore", over="ignore"):
                reads[cpus] = [run.values_at(9).tobytes(), run.sums_at(10).tobytes(),
                               run.values_at(3).tobytes()]
            # the summary's own errstate covers its leaf sums
            with pytest.raises(DomainError, match="member 0 overflows"):
                run.summary()
    assert reads[1] == reads[2]


def test_a_failed_walk_restarts_from_the_seeds(monkeypatch, exp_model):
    _pretend_cpus(monkeypatch, 2)
    config = SimulationConfig(rng_seed=6, n_paths=2 * _CHUNK_PATHS + 99, horizon=20,
                              model=exp_model)
    run = run_simulation(config)
    members = _reference_members(run.seed_pairs, 20)
    sums = list(itertools.accumulate(members))
    in_parts = simulate._in_parts

    def failing_in_parts(n_paths, body):
        walked = threading.Event()

        def part(start, stop):
            if threading.current_thread() is not threading.main_thread():
                assert walked.wait(timeout=30)
                raise MemoryError("no room for a step")
            body(start, stop)
            walked.set()

        in_parts(n_paths, part)

    for read in (run.values_at, run.sums_at):
        run.values_at(4)  # the cursor sits at member 3
        monkeypatch.setattr(simulate, "_in_parts", failing_in_parts)
        with pytest.raises(MemoryError, match="^no room for a step$"):
            read(12)  # the calling thread's first rows walk on, the helper's do not
        monkeypatch.setattr(simulate, "_in_parts", in_parts)
        # a read that stepped on from the half-stepped buffers would mix members
        assert run.values_at(13).tobytes() == members[13].tobytes()
        assert run.sums_at(15).tobytes() == sums[15].tobytes()
        assert run.values_at(17).tobytes() == members[17].tobytes()


def test_a_helper_left_running_steps_no_buffer_of_the_run(monkeypatch, exp_model):
    _pretend_cpus(monkeypatch, 2)
    config = SimulationConfig(rng_seed=8, n_paths=2 * _CHUNK_PATHS + 99, horizon=20,
                              model=exp_model)
    run = run_simulation(config)
    members = _reference_members(run.seed_pairs, 20)
    in_parts = simulate._in_parts
    release, stranded, walked = threading.Event(), [], []
    caller = threading.main_thread()

    def stalled_in_parts(n_paths, body):
        def part(start, stop):
            if threading.current_thread() is not caller:
                stranded.append(threading.current_thread())
                # Ctrl-C once the caller has walked its own rows and waits
                deadline = time.monotonic() + 30
                while sys._current_frames()[caller.ident].f_code is not in_parts.__code__:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                signal.pthread_kill(caller.ident, signal.SIGINT)
                assert release.wait(timeout=30)
            body(start, stop)
            walked.append(start)

        in_parts(n_paths, part)

    monkeypatch.setattr(simulate, "_in_parts", stalled_in_parts)
    with pytest.raises(KeyboardInterrupt):
        run.values_at(12)  # the helper has not started its rows
    monkeypatch.setattr(simulate, "_in_parts", in_parts)
    try:
        assert run.values_at(2).tobytes() == members[2].tobytes()  # a restart
    finally:
        release.set()  # the stranded helper now walks its rows through 11 steps
        _wait_idle(stranded[0])
    # the helper walked its first part, then found the pass lost
    assert _CHUNK_PATHS // 2 in walked and 3 * _CHUNK_PATHS // 2 not in walked
    # one step on from the cursor: rows the helper stepped would hold member 13
    assert run.values_at(3).tobytes() == members[3].tobytes()
    assert run.sums_at(6).tobytes() == list(itertools.accumulate(members))[6].tobytes()
