"""The four benchmark workloads, built from a seed.

Each workload is a fixed list of ops, issued one after another by a single
client in one process (a closed loop with one client). An op is either one
`fsrv.cli.main(argv)` call with stdout captured, or one call into the public
`fsrv.simulate` API. Every op carries its own oracle check.

The seed moves only the bump-table shape, the grid endpoints (by at most half
a percent of the grid width) and the simulation `--rng-seed`. Node counts,
grid point counts, path counts and horizons are fixed, so the amount of work
does not depend on the seed.
"""

import json
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
from oracle import Seed, limit_form, member_form, sum_form

NAMES = ("quad_smooth", "quad_kinked", "emit_bound", "mc_reduce")

#: Node count of the generated smooth-bump table seed.
BUMP_NODES = 17


@dataclass
class Op:
    """One client request. `values` is the number of output values it
    produces: grid values for density and predictor ops, path members
    reduced or written for simulation ops."""

    key: str
    values: int
    check: Callable
    argv: list[str] | None = None
    call: Callable | None = None
    render: Callable | None = None
    files: tuple[Path, ...] = ()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: Table files the program loads, so set-up can time loading them.
    tables: list[Path] = field(default_factory=list)
    #: Untimed checks run once per run; they count toward `attempted`.
    extra: list[Op] = field(default_factory=list)
    #: Ops that fail today through a known defect, run once per run, untimed
    #: and outside `attempted`; the traced run reports how many still fail.
    defect_probes: list[Op] = field(default_factory=list)
    #: Per-layer metrics a traced pass must read non-zero; a zero means a
    #: wrapper missed its binding, not that the layer did no work.
    required: tuple[str, ...] = ()
    #: The hostspeed.py kernel that slows with the host as the ops do.
    speed_kernel: str = "python"


def import_fsrv(root: Path):
    """Import the program from the checkout's src/ and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import fsrv
        import fsrv.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fsrv from {src}: {exc}") from None
    if not Path(fsrv.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: fsrv was imported from {fsrv.__file__}, not {src}")
    return fsrv


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process `fsrv` CLI call."""
    import contextlib
    import io

    import fsrv.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fsrv.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def write_table(path: Path, xs: np.ndarray, ys: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(xs, ys))


def triangle_nodes() -> tuple[np.ndarray, np.ndarray]:
    """Symmetric triangle on [0, 2], 17 nodes with the apex on a node."""
    xs = np.linspace(0.0, 2.0, 17)
    return xs, np.where(xs <= 1.0, xs, 2.0 - xs)


def bump_nodes(rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Smooth bump (x(3-x))^p * exp(s*x) on [0, 3]; the seed moves p and s
    a little, so the shape changes but the work stays about the same."""
    xs = np.linspace(0.0, 3.0, BUMP_NODES)
    p = 2.0 + rng.uniform(-0.1, 0.1)
    s = 0.2 + rng.uniform(-0.05, 0.05)
    return xs, (xs * (3.0 - xs)) ** p * np.exp(s * xs)


class _Grid:
    """Grid strings shifted by the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def __call__(self, lo: float, hi: float, points: int) -> tuple[float, float, int]:
        d = self.rng.uniform(-0.005, 0.005) * (hi - lo)
        return float(lo + d), float(hi + d), points


def grid_arg(grid) -> str:
    lo, hi, points = grid
    return f"{lo!r}:{hi!r}:{points}"


def density_op(key: str, command: str, seed_spec: str, seed: Seed, grid, fmt: str,
               form, rng: random.Random, n: int | None = None, method: str | None = None) -> Op:
    argv = [command, "--seeds", seed_spec]
    if n is not None:
        argv += ["--n", str(n)]
    argv.append(f"--grid={grid_arg(grid)}")
    if method is not None:
        argv += ["--method", method]
    argv += ["--output", fmt]
    check_seed = rng.random()
    return Op(key, grid[2],
              lambda out: oracle.check_density(out.text, fmt, grid, seed, form,
                                               random.Random(check_seed)),
              argv=argv)


def predict_op(key: str, seed_spec: str, seed: Seed, n: int, k: int, grid,
               rng: random.Random | None, method: str = "quadrature", fmt: str = "csv") -> Op:
    """Without rng, a table-seed predictor is checked at every grid point."""
    argv = ["predict", "--seeds", seed_spec, "--n", str(n), "--k", str(k),
            f"--grid={grid_arg(grid)}", "--method", method, "--output", fmt]
    check_seed = None if rng is None else rng.random()
    return Op(key, grid[2],
              lambda out: oracle.check_predict(
                  out.text, fmt, grid, seed, n, k,
                  None if check_seed is None else random.Random(check_seed)),
              argv=argv)


def joint_op(key: str, seed_spec: str, seed: Seed, n: int, k: int, grid0, grid1) -> Op:
    argv = ["joint", "--seeds", seed_spec, "--n", str(n), "--k", str(k),
            f"--grid0={grid_arg(grid0)}", f"--grid1={grid_arg(grid1)}", "--output", "csv"]
    return Op(key, grid0[2] * grid1[2],
              lambda out: oracle.check_joint(out.text, grid0, grid1, seed, n, k), argv=argv)


def simulate_op(key: str, seed_spec: str, seed: Seed, paths: int, horizon: int, rng_seed: int,
                workers: int = 1, paths_out: Path | None = None) -> Op:
    argv = ["simulate", "--seeds", seed_spec, "--paths", str(paths), "--horizon", str(horizon),
            "--rng-seed", str(rng_seed), "--workers", str(workers), "--output", "json"]
    members = paths * (horizon + 1)
    if paths_out is None:
        return Op(key, members,
                  lambda out: oracle.check_summary(out.text, seed, paths, horizon, rng_seed),
                  argv=argv)

    def check(out):
        summary = oracle.check_summary(out.text, seed, paths, horizon, rng_seed)
        oracle.check_paths_file(out.files[paths_out], summary, seed, paths, horizon)

    return Op(key, 2 * members, check, argv=argv + ["--paths-out", str(paths_out)],
              files=(paths_out,))


QUAD_REQUIRED = (
    "numerics.integrand_evals", "numerics.integrate_calls", "numerics.convolution_calls",
    "numerics.certificate_evals", "seeds.pdf_calls", "marginal.pdf_numeric_s",
    "limits.pdf_limit_numeric_s", "limits.pdf_sum_s", "cli.parse_s", "cli.emit_s",
    "cli.bytes_out")

UNIT_EXP = Seed("exp", rate=1.0)
UNIF = Seed("unif")
NORMAL = Seed("normal")


def quad_smooth(rng: random.Random, work: Path) -> Workload:
    """Few deep adaptive integrals on smooth seeds: kernel work per
    integrand evaluation dominates."""
    g = _Grid(rng)
    return Workload("quad_smooth", [
        density_op("pdf_normal01_n4", "pdf", "normal01", NORMAL, g(-15, 15, 60), "csv",
                   member_form(4), rng, n=4, method="numeric"),
        density_op("limit_normal01", "limit", "normal01", NORMAL, g(-4, 4, 60), "csv",
                   limit_form(NORMAL), rng),
        density_op("sums_normal01_n4", "sums", "normal01", NORMAL, g(-30, 30, 60), "csv",
                   sum_form(4), rng, n=4),
        density_op("pdf_exp1_n10", "pdf", "exp:1", UNIT_EXP, g(0, 600, 300), "csv",
                   member_form(10), rng, n=10, method="numeric"),
        predict_op("predict_exp1_n4_k3", "exp:1", UNIT_EXP, 4, 3, g(0.1, 20, 50), rng),
        predict_op("predict_normal01_n5_k2", "normal01", NORMAL, 5, 2, g(-10, 10, 20), rng),
    ], required=QUAD_REQUIRED + ("joint_predict.predict_calls", "joint_predict.joint_pdf_calls"))


def quad_kinked(rng: random.Random, work: Path) -> Workload:
    """Thousands of tiny breakpoint pieces on tabulated seeds: per-call
    overhead and the certificate dominate."""
    bump_path, tri_path = work / "bump.csv", work / "triangle.csv"
    bx, by = bump_nodes(rng)
    tx, ty = triangle_nodes()
    write_table(bump_path, bx, by)
    write_table(tri_path, tx, ty)
    bump, tri = oracle.table_seed(bx, by), oracle.table_seed(tx, ty)
    bump_spec, tri_spec = f"table:{bump_path}", f"table:{tri_path}"
    g = _Grid(rng)
    # ROADMAP item 2: joint_normalization_check and predict integrate joint_pdf
    # without splitting at the seed kinks. The triangle joint certificate
    # refuses a correct density (exit 3, norm_defect 8.871e-06), and table-seed
    # predictors miss scipy quadrature by up to 8e-3 (triangle) and 2e-5 (bump).
    # Both run as probes on fixed grids until that fix lands.
    probes = [
        joint_op("joint_triangle_n4_k3", tri_spec, tri, 4, 3, (0.0, 10.0, 20), (0.0, 26.0, 20)),
        predict_op("predict_triangle_n4_k3", tri_spec, tri, 4, 3, (0.5, 9.0, 60), None),
    ]
    return Workload("quad_kinked", [
        density_op("pdf_bump_n6", "pdf", bump_spec, bump, g(0, 39, 60), "csv",
                   member_form(6), rng, n=6),
        density_op("limit_bump", "limit", bump_spec, bump, g(-4, 4, 50), "csv",
                   limit_form(bump), rng),
        density_op("sums_bump_n5", "sums", bump_spec, bump, g(0, 60, 50), "csv",
                   sum_form(5), rng, n=5),
        density_op("pdf_triangle_n6", "pdf", tri_spec, tri, g(0, 26, 100), "csv",
                   member_form(6), rng, n=6),
    ], tables=[bump_path, tri_path], defect_probes=probes,
        required=QUAD_REQUIRED + ("seeds.breakpoints_calls",))


def emit_bound(rng: random.Random, work: Path) -> Workload:
    """Cheap closed forms on large grids plus raw path dumps: formatting and
    writing dominate, the quadrature kernel barely runs."""
    g = _Grid(rng)
    ops = []
    for fmt in ("csv", "json"):
        ops += [
            density_op(f"pdf_exp1_n10_{fmt}", "pdf", "exp:1", UNIT_EXP, g(0, 600, 2000), fmt,
                       member_form(10), rng, n=10),
            density_op(f"pdf_unif01_n10_{fmt}", "pdf", "unif01", UNIF, g(0, 90, 2000), fmt,
                       member_form(10), rng, n=10),
            density_op(f"pdf_normal01_n10_{fmt}", "pdf", "normal01", NORMAL, g(-200, 200, 2000),
                       fmt, member_form(10), rng, n=10),
            density_op(f"limit_exp1_{fmt}", "limit", "exp:1", UNIT_EXP, g(-2, 6, 2000), fmt,
                       limit_form(UNIT_EXP), rng),
            density_op(f"limit_unif01_{fmt}", "limit", "unif01", UNIF, g(-2, 2, 2000), fmt,
                       limit_form(UNIF), rng),
            density_op(f"sums_exp1_n8_{fmt}", "sums", "exp:1", UNIT_EXP, g(0, 300, 2000), fmt,
                       sum_form(8), rng, n=8),
        ]
    n_max = 80
    ops += [
        predict_op("predict_exp1_closed", "exp:1", UNIT_EXP, 4, 3, g(0.1, 20, 2000), rng,
                   method="closed_form"),
        joint_op("joint_unif01_n6_k4", "unif01", UNIF, 6, 4, g(0, 13, 100), g(0, 89, 100)),
        Op("ratios", 4 * (n_max - 2), lambda out: oracle.check_ratios(out.text, 3, n_max),
           argv=["ratios", "--n-max", str(n_max), "--output", "json"]),
        Op("moments_normal01_n30", 2, lambda out: oracle.check_moments(out.text, NORMAL, 30),
           argv=["moments", "--seeds", "normal01", "--n", "30"]),
        Op("fib_150", 1, lambda out: oracle.check_fib(out.text, 150), argv=["fib", "--n", "150"]),
        simulate_op("simulate_normal01_paths_out", "normal01", NORMAL, 2000, 40,
                    rng.getrandbits(32), paths_out=work / "paths.csv"),
    ]
    return Workload("emit_bound", ops, required=(
        "marginal.closed_s", "limits.closed_s", "numerics.certificate_evals",
        "joint_predict.normalization_s", "joint_predict.joint_pdf_calls",
        "simulate.sample_path_calls", "simulate.serialize_s", "simulate.recursion_steps",
        "cli.emit_s", "cli.bytes_out"))


def mc_reduce(rng: random.Random, work: Path) -> Workload:
    """Bulk simulation and its reductions: the read side of `simulate`."""
    import fsrv

    cli_seed, lib_seed = rng.getrandbits(32), rng.getrandbits(32)
    paths, horizon, ks_n = 250_000, 41, 30
    ratio_ns = range(2, horizon)
    config = fsrv.SimulationConfig(rng_seed=lib_seed, n_paths=paths, horizon=horizon,
                                   model=fsrv.exponential_model())
    state = {}

    def draw():
        state["run"] = fsrv.run_simulation(config, n_workers=2)
        return state["run"]

    def pairs():
        return state["run"].seed_pairs

    def ks(which):
        return lambda: fsrv.ks_distance(state["run"], ks_n, fsrv.cdf_limit_exponential_closed,
                                        which=which)

    ops = [
        simulate_op("simulate_exp1_1e6", "exp:1", UNIT_EXP, 1_000_000, 90, cli_seed, workers=2),
        Op("run_simulation_2.5e5", 0,
           lambda out: oracle.check_seed_pairs(out.result.seed_pairs, UNIT_EXP, paths),
           call=draw, render=lambda run: _digest(run.seed_pairs)),
        Op("ratio_stats_2_40", paths * len(ratio_ns),
           lambda out: oracle.check_ratio_stats(out.result, pairs(), ratio_ns),
           call=lambda: [fsrv.ratio_stats(state["run"], n) for n in ratio_ns],
           render=lambda stats: json.dumps([vars(s) for s in stats])),
    ]
    for which in ("y", "s"):
        ops.append(Op(f"ks_distance_{which}", paths,
                      lambda out, w=which: oracle.check_ks(out.result, pairs(), UNIT_EXP, ks_n, w),
                      call=ks(which), render=repr))
    # Summaries must be bit-identical whatever the worker count.
    small = ["simulate", "--seeds", "exp:1", "--paths", "20000", "--horizon", "41",
             "--rng-seed", str(cli_seed), "--output", "json", "--workers"]

    def check_identity(out):
        (rc1, text1), (rc2, text2) = out.result
        oracle.require(rc1 == rc2 == 0, f"exit codes {rc1}, {rc2}")
        oracle.require(text1 == text2, "summary differs between --workers 1 and --workers 2")
        oracle.check_summary(text1, UNIT_EXP, 20000, 41, cli_seed)

    identity = Op("simulate_workers_identity", 0, check_identity,
                  call=lambda: [run_cli(small + [w])[:2] for w in ("1", "2")], render=repr)
    # Over five runs, scaling by the "python" kernel spread norm_wall_s by
    # 11% (interquartile range over median) and by the "numpy" kernel by 2.3%.
    return Workload("mc_reduce", ops, extra=[identity], required=(
        "simulate.draw_s", "simulate.paths_per_s", "simulate.reduce_s",
        "simulate.recursion_steps", "simulate.serialize_s", "cli.bytes_out"),
        speed_kernel="numpy")


def _digest(a: np.ndarray) -> str:
    import hashlib

    return f"{a.shape} {a.dtype} sha256={hashlib.sha256(a.tobytes()).hexdigest()}"


BUILDERS = {f.__name__: f for f in (quad_smooth, quad_kinked, emit_bound, mc_reduce)}


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the workload's inputs under `work` and return its ops."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(seed), work)
