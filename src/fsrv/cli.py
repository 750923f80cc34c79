"""Command-line front end: every computation as a subcommand emitting CSV or
JSON suitable for plotting and scripting.

Numbers are written with 17 significant digits so emitted files are
byte-stable across runs and round-trip exactly back to doubles. Exit codes:
0 success, 2 validation failure, 3 numeric non-convergence or a density
table failing its normalization certificate.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import fib_core, joint_predict, limits, marginal, simulate
from .errors import FsrvError, NonConvergenceError
from .numerics import DEFAULT_CONFIG, DensityCurve, QuadratureConfig
from .seeds import parse_seed_spec

NORM_DEFECT_LIMIT = 1e-6


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _dumps(obj) -> str:
    """Compact JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    return _fmt(obj)


def _emit(text: str, out_path: str | None) -> None:
    """Write text, newline-terminated, to stdout or to out_path: both get the
    same bytes."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _csv_table(header: list[str], rows, trailing: list[str] = ()) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    lines.extend(trailing)
    return "\n".join(lines) + "\n"


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:points, got {text!r}")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be numeric lo:hi:points, got {text!r}")
    if points < 2:
        raise argparse.ArgumentTypeError(f"grid needs at least 2 points, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"grid needs finite lo < hi, got {text!r}")
    return lo, hi, points


def _quad_config(default: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureConfig:
    """The command's default config, or FSRV_QUAD_TOL as its tolerance."""
    raw = os.environ.get("FSRV_QUAD_TOL")
    if raw is None:
        return default
    try:
        tol = float(raw)
    except ValueError:
        raise FsrvError(f"FSRV_QUAD_TOL: not a number: {raw!r}") from None
    return _flagged("FSRV_QUAD_TOL", QuadratureConfig, tol)


def _curve_output(curve: DensityCurve, output: str, out_path: str | None,
                  extra: dict | None = None) -> int:
    if curve.norm_defect > NORM_DEFECT_LIMIT:
        print(f"error: density table norm_defect {curve.norm_defect:.3e} exceeds "
              f"{NORM_DEFECT_LIMIT:.0e}; refusing to emit", file=sys.stderr)
        return 3
    if output == "csv":
        trailing = [f"# norm_defect={_fmt(curve.norm_defect)}"]
        text = _csv_table(["x", "density"], zip(curve.xs, curve.ys), trailing)
    else:
        doc = {
            "kind": "density_curve",
            "label": curve.label,
            "x": list(curve.xs),
            "density": list(curve.ys),
            "support": list(curve.support),
            "norm_defect": curve.norm_defect,
        }
        if extra:
            doc.update(extra)
        text = _dumps(doc)
    _emit(text, out_path)
    return 0


def _flagged(flag: str, fn, *fn_args):
    """Run fn, prefixing any domain error with the flag that caused it."""
    try:
        return fn(*fn_args)
    except FsrvError as exc:
        raise FsrvError(f"{flag}: {exc}") from None


def _cmd_fib(args) -> int:
    value = _flagged("--n", fib_core.fib, args.n)
    if args.output == "json":
        _emit(_dumps({"n": args.n, "value": value}), args.out)
    else:
        _emit(str(value), args.out)
    return 0


def _cmd_density(args) -> int:
    """pdf, limit and sums: sample the density law the subcommand builds on
    the grid. Only pdf has --method, and only pdf reports which route ran."""
    model = _model_from(args)
    cfg = _quad_config()
    law = args.law(args, model, cfg)
    method = getattr(args, "method", None)
    if method == "closed" and law.closed is None:
        print(f"error: --method closed: no closed form for seeds {args.seeds!r}",
              file=sys.stderr)
        return 2
    numeric = method == "numeric" or law.closed is None
    lo, hi, points = args.grid
    curve = DensityCurve.from_function(law.numeric if numeric else law.closed, lo, hi, points,
                                       law.support, cfg, label=law.label, knots=law.knots)
    extra = law.fields
    if method is not None:
        extra = {"method": "numeric" if numeric else "closed", **extra}
    return _curve_output(curve, args.output, args.out, extra=extra)


def _cmd_moments(args) -> int:
    model = _model_from(args)
    mean, variance = _flagged("--n", marginal.moments_xn, model, args.n)
    if args.output == "json":
        _emit(_dumps({"n": args.n, "mean": mean, "variance": variance}), args.out)
    else:
        _emit(_csv_table(["n", "mean", "variance"], [(args.n, mean, variance)]), args.out)
    return 0


def _cmd_ratios(args) -> int:
    rows = _flagged("--n-min/--n-max", marginal.ratio_diagnostics,
                    args.n_min, args.n_max)
    if args.output == "json":
        _emit(_dumps([row.as_dict() for row in rows]), args.out)
    else:
        table = [(r.n, r.max_ratio, r.mode_ratio, r.mean_ratio, r.var_ratio) for r in rows]
        _emit(_csv_table(["n", "max_ratio", "mode_ratio", "mean_ratio", "var_ratio"], table),
              args.out)
    return 0


def _cmd_joint(args) -> int:
    model = _model_from(args)
    law = _flagged("--n/--k", joint_predict.joint_law, args.n, args.k)
    lo0, hi0, p0 = args.grid0
    lo1, hi1, p1 = args.grid1
    xs0 = np.linspace(lo0, hi0, p0)
    xs1 = np.linspace(lo1, hi1, p1)
    mass = joint_predict.joint_normalization_check(law, model, _quad_config())
    defect = abs(mass - 1.0)
    if defect > NORM_DEFECT_LIMIT:
        print(f"error: joint density norm_defect {defect:.3e} exceeds "
              f"{NORM_DEFECT_LIMIT:.0e}; refusing to emit", file=sys.stderr)
        return 3
    if args.output == "csv":
        rows = [(y0, y1, joint_predict.joint_pdf(law, model, float(y0), float(y1)))
                for y0 in xs0 for y1 in xs1]
        text = _csv_table(["y0", "y1", "density"], rows, [f"# norm_defect={_fmt(defect)}"])
    else:
        density = [[joint_predict.joint_pdf(law, model, float(y0), float(y1)) for y1 in xs1]
                   for y0 in xs0]
        text = _dumps({
            "kind": "joint_density",
            "n": args.n,
            "k": args.k,
            "y0": list(xs0),
            "y1": list(xs1),
            "density": density,
            "norm_defect": defect,
        })
    _emit(text, args.out)
    return 0


def _cmd_predict(args) -> int:
    model = _model_from(args)
    law = _flagged("--n/--k", joint_predict.joint_law, args.n, args.k)
    lo, hi, points = args.grid
    xs = np.linspace(lo, hi, points)
    curve = joint_predict.prediction_curve(law, model, xs, method=args.method,
                                           cfg=_quad_config(joint_predict.PREDICT_CONFIG))
    if args.output == "csv":
        text = _csv_table(["x", "predicted"], zip(curve.xs, curve.g_values))
    else:
        text = _dumps({
            "kind": "prediction_curve",
            "n": args.n,
            "k": args.k,
            "method": curve.method,
            "x": list(curve.xs),
            "predicted": list(curve.g_values),
        })
    _emit(text, args.out)
    return 0


def _cmd_simulate(args) -> int:
    model = _model_from(args)
    config = _flagged("--paths/--horizon", simulate.SimulationConfig,
                      args.rng_seed, args.paths, args.horizon, model)
    run = _flagged("--workers", simulate.run_simulation, config, args.workers)
    if args.paths_out is not None:
        rows = []
        for i in range(config.n_paths):
            for n, value in enumerate(simulate.sample_path(config, i)):
                rows.append((i, n, value))
        with open(args.paths_out, "w") as fh:
            fh.write(_csv_table(["path_index", "n", "value"], rows))
    if args.output == "json":
        _emit(run.summary_json(), args.out)
    else:
        summary = run.summary()
        rows = list(zip(range(config.horizon + 1), summary["mean"], summary["variance"]))
        _emit(_csv_table(["n", "mean", "variance"], rows), args.out)
    return 0


def _model_from(args) -> marginal.FsrvModel:
    """Both seeds are the one parsed (immutable) law; errors name the flag."""
    try:
        seed = parse_seed_spec(args.seeds)
    except (FsrvError, OSError) as exc:
        raise FsrvError(f"--seeds: {exc}") from None
    return marginal.FsrvModel(seed, seed)


def _add_seeds_argument(sub) -> None:
    sub.add_argument("--seeds", required=True,
                     help="seed family for the iid seed pair: exp:<rate>, "
                          "unif01, normal01, or table:<csv path>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsrv",
        description="Distributions, limit laws, and predictors for Fibonacci "
                    "sequences of random variables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--output", choices=("csv", "json"), default="csv")
        sub.add_argument("--out", default=None, help="write to this file instead of stdout")

    p = subparsers.add_parser("fib", help="exact Fibonacci number")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_fib)

    p = subparsers.add_parser("pdf", help="density of member n on a grid")
    _add_seeds_argument(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="LO:HI:POINTS")
    p.add_argument("--method", choices=("auto", "closed", "numeric"), default="auto")
    common(p)
    p.set_defaults(func=_cmd_density, law=lambda a, model, cfg:
                   _flagged("--n", marginal.member_law, model, a.n, cfg))

    p = subparsers.add_parser("moments", help="mean and variance of member n")
    _add_seeds_argument(p)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_moments)

    p = subparsers.add_parser("ratios", help="golden-ratio diagnostics table")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_ratios)

    p = subparsers.add_parser("limit", help="density of the limit law Y on a grid")
    _add_seeds_argument(p)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="LO:HI:POINTS")
    common(p)
    p.set_defaults(func=_cmd_density,
                   law=lambda a, model, cfg: limits.limit_density_law(model, cfg))

    p = subparsers.add_parser("sums", help="density of the partial sum through member n")
    _add_seeds_argument(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="LO:HI:POINTS")
    common(p)
    p.set_defaults(func=_cmd_density, law=lambda a, model, cfg:
                   _flagged("--n", limits.sum_density_law, a.n, model, cfg))

    p = subparsers.add_parser("joint", help="joint density of members n and n+k on a grid")
    _add_seeds_argument(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid0", type=_parse_grid, required=True, metavar="LO:HI:POINTS")
    p.add_argument("--grid1", type=_parse_grid, required=True, metavar="LO:HI:POINTS")
    common(p)
    p.set_defaults(func=_cmd_joint)

    p = subparsers.add_parser("predict", help="conditional mean of member n+k given member n")
    _add_seeds_argument(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="LO:HI:POINTS")
    p.add_argument("--method", choices=("quadrature", "closed_form"), default="quadrature")
    common(p)
    p.set_defaults(func=_cmd_predict)

    p = subparsers.add_parser("simulate", help="Monte Carlo run summary")
    _add_seeds_argument(p)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--rng-seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--paths-out", default=None,
                   help="also dump raw paths as CSV (path_index, n, value)")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except FsrvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
