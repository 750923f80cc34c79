"""The benchmark's layer tracer must find every function it wraps: a program
change that renames or deletes one silently empties a `--trace 1` metric.
The benchmark's oracles must accept the program's output, so a change that
alters what the output means fails here and not only in the benchmark."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

import fsrv.cli
from fsrv.simulate import _CHUNK_PATHS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layertrace
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return layertrace, workloads


def test_layer_tracer_finds_every_target():
    layertrace, _ = _perfbench_modules()
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer._patches
    finally:
        tracer.uninstall()


def test_layer_tracer_counts_what_the_quadrature_workloads_require(capsys, tmp_path):
    # a numeric smooth density, a predictor and a table-seed density reach
    # every layer whose count quad_smooth or quad_kinked require to be non-zero
    layertrace, workloads = _perfbench_modules()
    counts = {name for name, unit, _ in layertrace.METRICS if unit == "count"}
    required = set()
    for name in ("quad_smooth", "quad_kinked"):
        required.update(counts.intersection(workloads.build(name, 1, tmp_path / name).required))
    assert {"joint_predict.joint_pdf_calls", "seeds.breakpoints_calls"} <= required
    table = tmp_path / "tri.csv"
    xs = np.linspace(0.0, 2.0, 17)
    table.write_text("\n".join(f"{x},{1.0 - abs(1.0 - x)}" for x in xs) + "\n")
    commands = (
        ["pdf", "--seeds", "normal01", "--n", "4", "--grid=-6:6:7", "--method", "numeric"],
        ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3", "--grid", "0.5:10:5"],
        ["pdf", "--seeds", f"table:{table}", "--n", "3", "--grid", "0:7:8"],
    )
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        for argv in commands:
            assert fsrv.cli.main(argv) == 0
            # the benchmark driver tallies the bytes it captured the same way
            tracer.tally["cli.bytes_out"] += len(capsys.readouterr().out)
        metrics = tracer.pass_metrics(values=len(commands))
    finally:
        tracer.uninstall()
    assert sorted(name for name in required if not metrics[name]) == []


def test_layer_tracer_counts_what_the_emit_workload_requires(capsys, tmp_path):
    # closed densities in both formats, a joint density and a path dump reach
    # every layer whose count or time emit_bound requires to be non-zero
    layertrace, workloads = _perfbench_modules()
    required = set(workloads.build("emit_bound", 1, tmp_path / "emit").required)
    assert {"cli.emit_s", "simulate.serialize_s", "simulate.sample_path_calls"} <= required
    commands = (
        ["pdf", "--seeds", "exp:1", "--n", "10", "--grid", "0:600:50"],
        ["pdf", "--seeds", "unif01", "--n", "10", "--grid", "0:90:50", "--output", "json"],
        ["limit", "--seeds", "unif01", "--grid=-2:2:50"],
        ["joint", "--seeds", "unif01", "--n", "6", "--k", "4", "--grid0", "0:13:10",
         "--grid1", "0:89:10"],
        ["simulate", "--seeds", "normal01", "--paths", "20", "--horizon", "10",
         "--rng-seed", "3", "--paths-out", str(tmp_path / "paths.csv")],
    )
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        for argv in commands:
            # the op's command, as the driver passes it: emit time under
            # simulate also counts as serialization
            tracer.begin_op(argv[0], argv[0])
            assert fsrv.cli.main(argv) == 0
            tracer.tally["cli.bytes_out"] += len(capsys.readouterr().out)
        metrics = tracer.pass_metrics(values=len(commands))
    finally:
        tracer.uninstall()
    assert sorted(name for name in required if not metrics[name]) == []


def test_grid_tables_render_through_the_traced_writer(capsys, monkeypatch, tmp_path):
    # the tracer's cli.emit_s (and, under simulate, simulate.serialize_s)
    # times the CSV formatting by wrapping cli._csv_table: a writer change
    # that formats the joint grid or the path dump elsewhere would drop that
    # time from both metrics
    render = fsrv.cli._csv_table
    rendered = []

    def counted(header, columns, *rest):
        rendered.append((header[0], render(header, columns, *rest)))
        return rendered[-1][1]

    monkeypatch.setattr(fsrv.cli, "_csv_table", counted)
    assert fsrv.cli.main(["joint", "--seeds", "unif01", "--n", "6", "--k", "4",
                          "--grid0", "0:13:10", "--grid1", "0:89:12", "--output", "csv"]) == 0
    assert rendered == [("y0", capsys.readouterr().out)]
    rendered.clear()
    paths = tmp_path / "paths.csv"
    assert fsrv.cli.main(["simulate", "--seeds", "normal01", "--paths", "20", "--horizon", "10",
                          "--rng-seed", "3", "--output", "csv", "--paths-out", str(paths)]) == 0
    assert rendered == [("n", capsys.readouterr().out), ("path_index", paths.read_text())]


def test_layer_tracer_counts_what_the_mc_workload_requires(capsys, tmp_path):
    # a simulate command and the library draw, ratio and KS calls reach every
    # layer whose count or time mc_reduce requires to be non-zero
    layertrace, workloads = _perfbench_modules()
    required = set(workloads.build("mc_reduce", 1, tmp_path / "mc").required)
    assert {"simulate.reduce_s", "simulate.recursion_steps", "simulate.serialize_s"} <= required
    argv = ["simulate", "--seeds", "exp:1", "--paths", "200", "--horizon", "20",
            "--rng-seed", "3", "--output", "json"]
    config = fsrv.SimulationConfig(rng_seed=4, n_paths=200, horizon=20,
                                   model=fsrv.exponential_model())
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        tracer.begin_op("simulate", "simulate")
        assert fsrv.cli.main(argv) == 0
        tracer.tally["cli.bytes_out"] += len(capsys.readouterr().out)
        tracer.begin_op("library", None)
        run = fsrv.run_simulation(config)
        for n in range(2, 20):
            fsrv.ratio_stats(run, n)
        for which in ("y", "s"):
            fsrv.ks_distance(run, 15, fsrv.cdf_limit_exponential_closed, which=which)
        metrics = tracer.pass_metrics(values=4)
    finally:
        tracer.uninstall()
    assert sorted(name for name in required if not metrics[name]) == []


def test_layer_tracer_counts_do_not_depend_on_the_cpu_count(monkeypatch):
    # the helper threads of a pass call no name the tracer wraps: a wrapped
    # call per part would count three parts at one CPU and five at two
    layertrace, _ = _perfbench_modules()
    units = {name: unit for name, unit, _ in layertrace.METRICS}
    config = fsrv.SimulationConfig(rng_seed=5, n_paths=2 * _CHUNK_PATHS + 7, horizon=30,
                                   model=fsrv.exponential_model())
    counts = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        tracer = layertrace.Tracer()
        try:
            tracer.install()
            run = fsrv.run_simulation(config)
            run.values_at(20)  # a walk from the seeds
            run.values_at(25)  # a walk of five steps from the cursor
            run.sums_at(28)
            run.summary()
            metrics = tracer.pass_metrics(values=1)
        finally:
            tracer.uninstall()
        counts[cpus] = ({name: value for name, value in metrics.items()
                         if units[name] == "count"},
                        dict(tracer.calls), dict(tracer.tally),
                        {name: cell[0] for name, cell in tracer.leaf_cells.items()})
    assert counts[1][0]["simulate.recursion_steps"] > 0
    assert counts[1] == counts[2]


# Every count metric of one pass over each workload at seed 1: the quadrature
# workloads' as recorded before the engine's bisection loop moved to column
# arrays, mc_reduce's and emit_bound's as recorded before the summary summed
# leaves. A speed change must leave the calls the benchmark counts as they were.
# The quadrature workloads' cli.bytes_out was re-recorded when densities moved
# to the seed coordinate V1, which changed digits by rounding.
_PASS_COUNTS = {
    "quad_smooth": {
        "numerics.integrand_evals": 17, "numerics.integrate_calls": 4,
        "numerics.evals_per_value": 17 / 550, "numerics.convolution_calls": 23,
        "numerics.pieces_per_convolution": 0.0, "numerics.certificate_evals": 17,
        "numerics.nonconvergence_errors": 0, "seeds.pdf_calls": 154,
        "seeds.breakpoints_calls": 0, "joint_predict.joint_pdf_calls": 5,
        "joint_predict.predict_calls": 2, "cli.bytes_out": 22674,
        "simulate.recursion_steps": 0, "simulate.sample_path_calls": 0,
        "trace.wrapped_calls": 241},
    "quad_kinked": {
        "numerics.integrand_evals": 4, "numerics.integrate_calls": 4,
        "numerics.evals_per_value": 4 / 260, "numerics.convolution_calls": 8,
        "numerics.pieces_per_convolution": 0.0, "numerics.certificate_evals": 4,
        "numerics.nonconvergence_errors": 0, "seeds.pdf_calls": 60,
        "seeds.breakpoints_calls": 24, "joint_predict.joint_pdf_calls": 0,
        "joint_predict.predict_calls": 0, "cli.bytes_out": 10497,
        "simulate.recursion_steps": 0, "simulate.sample_path_calls": 0,
        "trace.wrapped_calls": 124},
    "emit_bound": {
        "numerics.integrand_evals": 43, "numerics.integrate_calls": 13,
        "numerics.evals_per_value": 43 / 200315, "numerics.convolution_calls": 0,
        "numerics.pieces_per_convolution": 0.0, "numerics.certificate_evals": 42,
        "numerics.nonconvergence_errors": 0, "seeds.pdf_calls": 4,
        "seeds.breakpoints_calls": 0, "joint_predict.joint_pdf_calls": 2,
        "joint_predict.predict_calls": 0, "cli.bytes_out": 1460995,
        "simulate.recursion_steps": 40, "simulate.sample_path_calls": 1,
        "trace.wrapped_calls": 160},
    "mc_reduce": {
        "numerics.integrand_evals": 0, "numerics.integrate_calls": 0,
        "numerics.evals_per_value": 0.0, "numerics.convolution_calls": 0,
        "numerics.pieces_per_convolution": 0.0, "numerics.certificate_evals": 0,
        "numerics.nonconvergence_errors": 0, "seeds.pdf_calls": 0,
        "seeds.breakpoints_calls": 0, "joint_predict.joint_pdf_calls": 0,
        "joint_predict.predict_calls": 0, "cli.bytes_out": 9699,
        "simulate.recursion_steps": 150, "simulate.sample_path_calls": 0,
        "trace.wrapped_calls": 50},
}


def test_the_ks_oracle_accepts_the_pruned_sup():
    # the benchmark's oracle recomputes the one-sided statistic on every point
    # of the sample, where ks_distance calls the target on a few blocks
    _, workloads = _perfbench_modules()
    config = fsrv.SimulationConfig(rng_seed=6, n_paths=10**5, horizon=31,
                                   model=fsrv.exponential_model())
    assert config.n_paths >= 5 * fsrv.simulate._KS_BLOCK
    run = fsrv.run_simulation(config)
    for which in ("y", "s"):
        ks = fsrv.ks_distance(run, 30, fsrv.cdf_limit_exponential_closed, which=which)
        workloads.oracle.check_ks(ks, run.seed_pairs, workloads.UNIT_EXP, 30, which)


@pytest.mark.parametrize("name", sorted(_PASS_COUNTS))
def test_layer_tracer_counts_of_a_quadrature_pass_are_pinned(tmp_path, name):
    # one traced pass over the workload's ops, CLI and library ones, as the
    # benchmark's --trace 1 runs and tallies it
    layertrace, workloads = _perfbench_modules()
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path[:] = saved
    units = {metric: unit for metric, unit, _ in layertrace.METRICS}
    workload = workloads.build(name, 1, tmp_path / name)
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        for op in workload.ops:
            tracer.begin_op(op.key, op.argv[0] if op.argv else None)
            out = run.run_op(op)
            assert out.rc == 0, (op.key, out.error)
            tracer.tally["cli.bytes_out"] += len(out.text)
        metrics = tracer.pass_metrics(values=sum(op.values for op in workload.ops))
    finally:
        tracer.uninstall()
    assert {metric: value for metric, value in metrics.items()
            if units[metric] == "count"} == _PASS_COUNTS[name]


def _workload_names():
    _, workloads = _perfbench_modules()
    return workloads.NAMES


@pytest.mark.parametrize("name", _workload_names())
def test_workload_passes_its_oracles(tmp_path, name):
    # every op of the workload once, in order, untimed, as the benchmark
    # runs and checks it
    saved = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.path[:] = saved
    workload = workloads.build(name, 1, tmp_path / name)
    assert workload.ops
    for op in workload.ops:
        out = run.run_op(op)
        assert out.rc == 0, (op.key, out.error)
        assert run.oracle_failure(op, out) is None, op.key
