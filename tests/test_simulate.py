import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsrv import simulate
from fsrv.cli import main
from fsrv.errors import DegenerateSampleError, DomainError, KsUnreliableWarning
from fsrv.fib_core import PHI, fib
from fsrv.limits import cdf_limit_exponential_closed, sum_law
from fsrv.marginal import FsrvModel, moments_xn
from fsrv.seeds import Exponential
from fsrv.simulate import (
    _CHUNK_PATHS,
    PHI_TOLERANCE,
    RATIO_EXCLUSION_FLOOR,
    RatioStats,
    SimulationConfig,
    SimulationRun,
    _draw_seed_pairs,
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


def _regenerated_path(config, i) -> list[float]:
    """One path redrawn from its own substream and walked with scalar adds:
    the per-path regeneration sample_path replaced, kept as its reference."""
    x0, x1 = _draw_seed_pairs(config, i, 1)[0]
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
    blocks = simulate._uniform_blocks
    monkeypatch.setattr(simulate, "_uniform_blocks", lambda *a: calls.append(a) or blocks(*a))
    assert main(["simulate", "--seeds", "normal01", "--paths", "2000", "--horizon", "40",
                 "--rng-seed", "1", "--paths-out", str(tmp_path / "paths.csv"),
                 "--out", str(tmp_path / "summary.csv")]) == 0
    assert len(calls) == 1


def test_forced_unit_seeds_reproduce_fibonacci(exp_model):
    config = SimulationConfig(rng_seed=0, n_paths=3, horizon=30, model=exp_model)
    run = SimulationRun(config, np.ones((3, 2)))
    for n in range(0, 31):
        assert np.all(run.values_at(n) == float(fib(n + 1)))
    zeros = SimulationRun(config, np.zeros((3, 2)))
    assert np.all(zeros.values_at(30) == 0.0)


def test_chunked_draws_align_with_per_path_draws(exp_model):
    config = SimulationConfig(rng_seed=55, n_paths=16, horizon=5, model=exp_model)
    bulk = _draw_seed_pairs(config, 0, 16)
    singles = np.vstack([_draw_seed_pairs(config, i, 1) for i in range(16)])
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
        law = sum_law(n, exp_model)
        closed = (law.coeff0 * exp_run.seed_pairs[:, 0]
                  + law.coeff1 * exp_run.seed_pairs[:, 1])
        assert np.max(np.abs(sums - closed) / (1.0 + np.abs(sums))) <= 1e-9


def test_empirical_moments_match_analytic(exp_run, exp_model):
    n_paths = exp_run.config.n_paths
    for n in (5, 12):
        mean, var = moments_xn(exp_model, n)
        values = exp_run.values_at(n)
        assert abs(float(np.mean(values)) - mean) <= 4.0 * math.sqrt(var / n_paths)
        # fourth central moment of a two-exponential sum is at most 9*var^2
        assert abs(float(np.var(values, ddof=1)) - var) <= 4.0 * math.sqrt(9.0 * var * var / n_paths)


def test_moment_agreement_at_full_scale(exp_model):
    config = SimulationConfig(rng_seed=4096, n_paths=10**5, horizon=12, model=exp_model)
    run = run_simulation(config)
    for n in (3, 8, 12):
        mean, var = moments_xn(exp_model, n)
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


def test_summary_contents(exp_model):
    config = SimulationConfig(rng_seed=9, n_paths=500, horizon=10, model=exp_model)
    run = run_simulation(config)
    summary = run.summary()
    assert summary["rng_seed"] == 9
    assert summary["seed0"] == "exp:1"
    assert len(summary["mean"]) == 11
    mean, var = moments_xn(exp_model, 10)
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
_QUERIES = st.lists(st.tuples(st.sampled_from(("values", "sums", "ratio")),
                              st.integers(0, _HORIZON)), min_size=1, max_size=12)


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
    if order != "drawn":
        queries = sorted(queries, key=lambda q: q[1], reverse=order == "descending")
    for kind, n in queries:
        if kind == "values":
            assert np.array_equal(run.values_at(n), members[n])
        elif kind == "sums":
            total = members[0].copy()
            for k in range(1, n + 1):
                total = total + members[k]
            assert np.array_equal(run.sums_at(n), total)
        else:
            n = min(n, _HORIZON - 1)
            assert ratio_stats(run, n) == _reference_ratio_stats(members, n)


def test_values_at_returns_a_private_copy(exp_model):
    config = SimulationConfig(rng_seed=8, n_paths=50, horizon=20, model=exp_model)
    run = run_simulation(config)
    members = _reference_members(run.seed_pairs, 20)
    for n in (0, 1, 5, 6):
        run.values_at(n)[:] = -1.0
    assert np.array_equal(run.values_at(7), members[7])
    assert np.array_equal(run.values_at(6), members[6])
    assert ratio_stats(run, 12) == _reference_ratio_stats(members, 12)


@pytest.mark.parametrize("n_workers", [1, 2, 7])
def test_chunked_run_matches_one_draw(norm_model, n_workers):
    n_paths = _CHUNK_PATHS + 3
    config = SimulationConfig(rng_seed=31, n_paths=n_paths, horizon=5, model=norm_model)
    run = run_simulation(config, n_workers=n_workers)
    assert np.array_equal(run.seed_pairs, _draw_seed_pairs(config, 0, n_paths))


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
