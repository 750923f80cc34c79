"""fsrv benchmark: one workload per run, end-to-end metrics or a layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload quad_smooth --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run builds the workload's inputs from --seed, then repeats the workload's
fixed op list (one client, each op issued after the previous one returns)
until --seconds is used up. With --trace 0 it reports the end-to-end metrics
of BENCHMARK.json, with op times put at a fixed host speed (hostspeed.py);
with --trace 1 it spends the first half untraced and the
second half traced, and reports the per-layer metrics. Every op's first
output is checked against an oracle and every later output must be
byte-identical to it. The last stdout line is the JSON result.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layertrace import METRICS, Tracer  # noqa: E402

#: Fresh interpreters timed per run for setup_s.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


@dataclass
class Outcome:
    seconds: float
    #: `seconds` at the reference host speed; equal to it when not sampled.
    ref_seconds: float
    rc: int = 0
    text: str = ""
    files: dict = field(default_factory=dict)
    result: object = None
    error: str = ""


def timed(call, speed: HostSpeed | None) -> tuple[object, float, float]:
    """(result, wall seconds, seconds at reference speed) of call()."""
    if speed is not None:
        speed.start()
    t0 = time.perf_counter()
    try:
        result = call()
    finally:
        seconds = time.perf_counter() - t0
        if speed is None:
            ref_seconds = seconds
        else:
            speed.stop()
            ref_seconds = speed.scale(seconds)
    return result, seconds, ref_seconds


def run_op(op: workloads.Op, speed: HostSpeed | None = None) -> Outcome:
    """Run one op; only the call into the program is timed."""
    t0 = time.perf_counter()
    try:
        if op.argv is not None:
            (rc, text, err), seconds, ref_seconds = timed(lambda: workloads.run_cli(op.argv),
                                                          speed)
            out = Outcome(seconds, ref_seconds, rc, text, error=err.strip())
        else:
            result, seconds, ref_seconds = timed(op.call, speed)
            out = Outcome(seconds, ref_seconds, 0, op.render(result), result=result)
    except Exception:  # a crash inside the program fails this op, not the run
        seconds = time.perf_counter() - t0
        return Outcome(seconds, seconds, -1, error=traceback.format_exc())
    for path in op.files:
        out.files[path] = path.read_text()
    return out


class Runner:
    """Repeats a workload's op list and keeps the failure tally."""

    def __init__(self, workload: workloads.Workload, speed: HostSpeed | None = None):
        self.workload = workload
        self.speed = speed
        self.first = {}  # op key -> first Outcome
        self.op_seconds = {op.key: [] for op in workload.ops}
        self.op_ref_seconds = {op.key: [] for op in workload.ops}
        self.attempted = 0
        self.failures = {}  # op key -> first reason
        self.failed = 0
        self.tracer = None

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        self.failures.setdefault(key, reason)

    def run_pass(self) -> tuple[float, int]:
        """One pass over the op list: (summed op seconds, output bytes)."""
        total, bytes_out = 0.0, 0
        for op in self.workload.ops:
            if self.tracer is not None:
                self.tracer.begin_op(op.key, op.argv[0] if op.argv else None)
            out = run_op(op, self.speed)
            total += out.seconds
            self.op_seconds[op.key].append(out.seconds)
            self.op_ref_seconds[op.key].append(out.ref_seconds)
            bytes_out += len(out.text) + sum(len(t) for t in out.files.values())
            self.attempted += 1
            first = self.first.setdefault(op.key, out)
            if out.rc != 0:
                self.fail(op.key, f"exit {out.rc}: {out.error[-2000:]}")
            elif first is not out and (out.text, out.files) != (first.text, first.files):
                self.fail(op.key, "output differs from the first repetition")
        gc.collect()
        return total, bytes_out

    def run_passes(self, budget_s: float, between=None) -> list[float]:
        """Passes until the next one would end after budget_s (at least one).
        `between(fraction of budget used)` runs after each pass, inside the
        budget, so a slow host does not lengthen the run."""
        start = time.perf_counter()
        times = []
        while True:
            times.append(self.run_pass()[0])
            if between is not None:
                between((time.perf_counter() - start) / budget_s)
            if time.perf_counter() - start + statistics.median(times) > budget_s:
                return times

    def norm_wall_s(self) -> float:
        """Wall time of the op list at the reference host speed: the sum over
        ops of each op's median repetition, each repetition scaled by the
        host speed sampled while it ran."""
        return sum(statistics.median(times) for times in self.op_ref_seconds.values())

    def raw_wall_s(self) -> float:
        """The same sum of medians without the scaling, for the log."""
        return sum(statistics.median(times) for times in self.op_seconds.values())

    def check_first_outputs(self) -> None:
        for op in self.workload.ops:
            out = self.first[op.key]
            if out.rc == 0:
                self.check(op, out)

    def check(self, op, out: Outcome) -> None:
        reason = oracle_failure(op, out)
        if reason is not None:
            self.fail(op.key, reason)

    def run_extras(self) -> None:
        """Untimed checks that run once per run."""
        for op in self.workload.extra:
            self.attempted += 1
            reason = run_and_check(op)
            if reason is not None:
                self.fail(op.key, reason)

    def run_defect_probes(self) -> int:
        """Run the known-defect probes; returns how many still fail."""
        failing = 0
        for op in self.workload.defect_probes:
            reason = run_and_check(op)
            if reason is not None:
                failing += 1
                print(f"perfbench: known defect (ROADMAP item 2) {self.workload.name}/{op.key}: "
                      f"{reason}", file=sys.stderr)
        return failing


def oracle_failure(op: workloads.Op, out: Outcome) -> str | None:
    try:
        op.check(out)
    except Exception as exc:  # malformed output fails the op, not the run
        return f"oracle: {type(exc).__name__}: {exc}"
    return None


def run_and_check(op: workloads.Op) -> str | None:
    """Run an op once, untimed; the reason it failed, or None."""
    out = run_op(op)
    if out.rc != 0:
        return f"exit {out.rc}: {out.error[-2000:]}"
    return oracle_failure(op, out)


class SetupTimer:
    """Times set-up in fresh interpreters: `import fsrv` plus generating and
    loading the workload's inputs, from spawn to ready, at the reference host
    speed sampled inside the interpreter (hostspeed.py). The samples are
    spread over the run, so their median does not hang on one moment of a
    host whose speed drifts."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.times = []

    def sample(self) -> None:
        work = OUT_DIR / f"setup-{os.getpid()}-{len(self.times)}"
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), self.name,
                               str(self.seed), str(work)], capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()}")
        ready, overhead, ratio = map(float, proc.stdout.strip().splitlines()[-1].split())
        self.times.append(max(ready - t0 - overhead, 0.0) * ratio)

    def keep_pace(self, fraction: float) -> None:
        while len(self.times) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * fraction)):
            self.sample()

    def median(self) -> float:
        self.keep_pace(1.0)
        return statistics.median(self.times)


def save_capture(capture_dir: Path, runner: Runner) -> None:
    """Write each op's first output under <dir>/<workload>/<op key>."""
    target = capture_dir / runner.workload.name
    target.mkdir(parents=True, exist_ok=True)
    for key, out in runner.first.items():
        (target / f"{key}.out").write_text(out.text)
        for path, text in out.files.items():
            (target / f"{key}.{path.name}").write_text(text)


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(args) -> dict:
    end_to_end, per_layer = declared_metrics()
    if per_layer != {name: unit for name, unit, _ in METRICS}:
        raise SystemExit("perfbench: per_layer metrics in BENCHMARK.json differ from layertrace.py")
    workloads.import_fsrv(ROOT)

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, work)
        runner = Runner(workload,
                        speed=None if args.trace else HostSpeed(workload.speed_kernel))
        if args.trace:
            metrics = traced_run(runner, args)
        else:
            setup = SetupTimer(args.workload, args.seed)
            times = runner.run_passes(args.seconds, between=setup.keep_pace)
            norm_wall_s = runner.norm_wall_s()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values = sum(op.values for op in runner.workload.ops)
            metrics = {"setup_s": setup.median(), "norm_wall_s": norm_wall_s,
                       "norm_values_per_s": values / norm_wall_s, "peak_rss_mb": peak_rss_mb}
            print(f"{args.workload} seed={args.seed}: {len(times)} passes of "
                  f"{len(runner.workload.ops)} ops, {values} values per pass; "
                  f"unscaled wall time {runner.raw_wall_s():.4g} s")
            for key, seconds in runner.op_seconds.items():
                print(f"  op {key}: median {statistics.median(seconds):.4g} s, at reference "
                      f"speed {statistics.median(runner.op_ref_seconds[key]):.4g} s")
        runner.check_first_outputs()
        runner.run_extras()
        known_defects = runner.run_defect_probes()
        if args.trace:
            metrics["joint_predict.known_defects"] = known_defects
        if args.capture:
            save_capture(ROOT / args.capture, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, reason in runner.failures.items():
        print(f"perfbench: FAILED {args.workload}/{key}: {reason}", file=sys.stderr)
    units = per_layer if args.trace else end_to_end
    if not args.trace:
        print(f"  error_rate = {runner.failed / runner.attempted:.6g} fraction "
              f"({runner.failed} of {runner.attempted} ops)")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def traced_run(runner: Runner, args) -> dict:
    """Untraced passes for the first half, traced passes for the second.
    Count metrics must repeat exactly across traced passes."""
    untraced = runner.run_passes(args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    for name in tracer.missing:
        print(f"perfbench: trace target {name} not found", file=sys.stderr)
    runner.tracer = tracer
    passes, start = [], time.perf_counter()
    values = sum(op.values for op in runner.workload.ops)
    try:
        while True:
            tracer.reset()
            seconds, bytes_out = runner.run_pass()
            tracer.recording = False
            tracer.tally["cli.bytes_out"] += bytes_out
            passes.append((seconds, tracer.pass_metrics(values)))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(p[0] for p in passes) > args.seconds / 2.0:
                break
    finally:
        tracer.uninstall()
        runner.tracer = None
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}.json",
                 {"workload": args.workload, "seed": args.seed})

    counts = [name for name, unit, _ in METRICS if unit == "count" and name in passes[0][1]]
    for _, m in passes[1:]:
        drift = [name for name in counts if m[name] != passes[0][1][name]]
        if drift:
            raise SystemExit(f"perfbench: counts differ between traced passes: {drift}")
    metrics = {name: statistics.median(m[name] for _, m in passes) for name in passes[0][1]}
    zero = [name for name in runner.workload.required if not metrics[name]]
    if zero:
        raise SystemExit(f"perfbench: traced run read zero for {zero}; a wrapper missed its "
                         "binding")
    metrics["trace.overhead_s"] = statistics.median(p[0] for p in passes) \
        - statistics.median(untraced)
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced and {len(passes)} traced "
          f"passes; trace file {OUT_DIR.name}/trace-{args.workload}.json")
    return metrics


def run_all(args) -> dict:
    """Every workload in its own process; metrics are prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.capture:
            argv += ["--capture", args.capture]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", default=None, metavar="DIR",
                        help="save each op's first output under DIR/<workload>/<op key>, "
                             "DIR relative to the repository root")
    args = parser.parse_args(argv)
    if args.capture and not (ROOT / args.capture).resolve().is_relative_to(ROOT):
        parser.error("--capture must stay inside the repository")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
