"""Command-line front end: every computation as a subcommand emitting CSV or
JSON suitable for plotting and scripting.

Numbers are written with 17 significant digits so emitted files are
byte-stable across runs and round-trip exactly back to doubles. The one
exception is `simulate --output json`, which json.dumps writes with the
shortest repr that round-trips (0.9793128121255513 and 0.0, where the CSV
has 0.97931281212555132 and 0). Each subcommand returns its output text;
main alone writes it, reports errors and picks the exit code: 0 success,
2 validation failure, 3 numeric non-convergence or a density table failing
its normalization certificate.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fib_core, joint_predict, limits, marginal, simulate
from .errors import FsrvError, NonConvergenceError
from .numerics import DensityCurve, dekker_split
from .seeds import parse_seed_spec

NORM_DEFECT_LIMIT = 1e-6


#: The one number rule: integers and bools exactly, anything else as a
#: double at 17 significant digits, which round-trips.
_INT_FORMAT, _FLOAT_FORMAT = "%d", "%.17g"


def _column(values) -> tuple[np.ndarray, str]:
    """A column as an array, and the one format all its cells take:
    _INT_FORMAT for an integer or bool column, and _FLOAT_FORMAT for any
    other, which is cast to float64."""
    column = np.asarray(values)
    if column.dtype.kind in "biu":
        return column, _INT_FORMAT
    return column.astype(np.float64, copy=False), _FLOAT_FORMAT


def _fmt(value) -> str:
    """One number by the rule of _column; a Python int prints exactly, also
    beyond int64."""
    if isinstance(value, (bool, int, np.integer)):
        return _INT_FORMAT % value
    return _FLOAT_FORMAT % float(value)


#: A table with at least this many non-zero cells has its doubles written by
#: _format_doubles, a smaller one by `%`. The kernel costs about 0.2 ms per
#: table and 0.1 us per cell, `%` about 0.45 us per non-zero double and
#: little per zero. They break even near 400 cells (2 CPUs, Python 3.11); the
#: margin keeps a table near the cut-over from being slower in the kernel.
_KERNEL_CELLS = 1024
_BLOCK_CELLS = 8192
_POW_MIN, _POW_MAX = -280, 300  # the range of k in the table of 10**k
_FALLBACK_SLOTS = np.frombuffer(b"\0%.17g" + b"\0" * 23, np.uint8)
_LEAD_ZEROS = np.array([[-1], [-2], [-3]])  # e below these takes a zero after "0."


@functools.cache
def _kernel_tables() -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Each 10**k, k from _POW_MIN to _POW_MAX, as a pair hi + lo of doubles
    rounded to nearest from exact integers (10**k = hi + lo to about 2**-106
    relative), with hi split in two 26-bit halves; and the ASCII digits of
    0000..9999. Built on first use, so import pays nothing for them."""
    pairs = []
    for k in range(_POW_MIN, _POW_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        n, d = hi.as_integer_ratio()  # d is a power of two
        pairs.append((hi, math.ldexp((num * d - n * den) / den, 1 - d.bit_length())))
    hi, lo = np.array(pairs).T
    powers = (hi, *dekker_split(hi), lo)
    quads = (np.indices((10,) * 4, np.uint8) + 48).reshape(4, -1)
    for table in (*powers, quads):
        table.flags.writeable = False  # every call shares them
    return powers, quads


def _digits(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer part (int64) and the fraction of a * 10**(16 - e), for
    doubles 1e-280 < a < 1e280. The product is a double-double: Dekker's
    exact product of a with hi, plus a * lo; the fraction is good to a few
    units of 1e-15."""
    (hi, hi1, hi2, lo), _ = _kernel_tables()
    k = 16 - _POW_MIN - e
    hi, hi1, hi2, lo = (np.take(col, k) for col in (hi, hi1, hi2, lo))
    a1, a2 = dekker_split(a)
    p = a * hi
    whole = np.floor(p)
    rest = (p - whole) + ((((a1 * hi1 - p) + a1 * hi2) + a2 * hi1) + a2 * hi2) + a * lo
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _format_block(v: np.ndarray, seps: np.ndarray, prefix: np.ndarray) -> str:
    """One block of _format_doubles: a frame of one-byte slots per cell
    (prefix, sign, "0.000", 17 digits and a point, "e+ddd", separator),
    with every unused slot NUL, joined by dropping the NULs."""
    n = len(v)
    a = np.abs(v)
    zero = a == 0
    fast = (a > 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _digits(a, e)
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))  # log10 was one off
    if len(off):
        e[off] += np.where(d[off] < 10**16, -1, 1)
        d[off], frac[off] = _digits(a[off], e[off])
        fast &= (d >= 10**16) & (d < 10**17)
    fast &= np.abs(frac - 0.5) >= 1e-6  # a near tie needs more digits
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[zero], e[zero] = 10**16, 0

    _, quads = _kernel_tables()
    high, low = np.divmod(d, 10**8)
    high, part2 = np.divmod(high, 10**4)
    top, part1 = np.divmod(high, 10**4)
    ladder = np.zeros((19, n), np.uint8)  # a zero row, the 17 digits, a zero row
    ladder[1] = top + 48
    for j, part in enumerate((part1, part2, *np.divmod(low, 10**4))):
        ladder[4 * j + 2:4 * j + 6] = np.take(quads, part, axis=1)
    rows = np.arange(19, dtype=np.uint8)[:, None]
    last = (rows[:17] * (ladder[1:18] != 48)).max(axis=0)  # the last non-zero digit
    ladder[1, zero] = 48

    fixed = (e >= -4) & (e < 17)
    whole = np.where(fixed, e, 0)  # the last digit before the point
    point = (last > whole) & (whole >= 0)
    at = np.where(point, whole, 17).astype(np.uint8)  # the point follows digit `at`
    used = (np.maximum(last, whole) + 1 + point).astype(np.uint8)
    slot = rows[:18]
    body = (ladder[1:] * (slot <= at) + (slot == at + 1) * np.uint8(46)
            + ladder[:18] * (slot > at + 1)) * (slot < used)

    width = len(prefix)
    frame = np.zeros((width + 30, n), np.uint8)  # a row per slot, a column per cell
    frame[:width] = prefix
    frame[width] = np.signbit(v) * np.uint8(45)
    lead = fixed & (e < 0)  # "0." and -e - 1 zeros before the digits
    frame[width + 1] = lead * np.uint8(48)
    frame[width + 2] = lead * np.uint8(46)
    frame[width + 3:width + 6] = (fixed & (e < _LEAD_ZEROS)) * np.uint8(48)
    frame[width + 6:width + 24] = body
    scientific = ~fixed
    exponent = np.abs(e)
    frame[width + 24] = scientific * np.uint8(101)
    frame[width + 25] = scientific * np.where(e < 0, np.uint8(45), np.uint8(43))
    frame[width + 26:width + 29] = np.take(quads[1:], exponent, axis=1) * scientific
    frame[width + 26] *= exponent >= 100
    frame[width + 29] = seps
    fallback = ~(fast | zero)
    cells = v[fallback].tolist()
    if cells:
        frame[width:width + 29, fallback] = _FALLBACK_SLOTS[:, None]
    text = frame.T.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(cells) if cells else text


def _format_doubles(values: np.ndarray, seps, prefix: np.ndarray | None = None):
    """The text of `"%.17g" % v` for each double v of the 1-D float64 array
    values, each after its row of the NUL-padded uint8 prefix (if given) and
    followed by its own separator byte (seps broadcasts to values), yielded
    in blocks of _BLOCK_CELLS cells. The kernel reads the 17 digits of each
    value exactly and leaves to `%` only the cells it cannot decide: those
    within 1e-6 of a rounding tie, outside (1e-280, 1e280) or not finite."""
    seps = np.broadcast_to(np.asarray(seps, np.uint8), values.shape)
    if prefix is None:
        prefix = np.zeros((0, len(values)), np.uint8)
    for start in range(0, len(values), _BLOCK_CELLS):
        block = slice(start, start + _BLOCK_CELLS)
        yield _format_block(values[block], seps[block], prefix[:, block])


def _dumps(obj) -> str:
    """Compact JSON with numbers by _fmt. A 1-D numeric array is formatted
    as one column, by _format_doubles if it is a large enough double column
    and else in one `%` call; a 2-D one row by row."""
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "biuf":
        cells, fmt = _column(obj)
        if fmt is _FLOAT_FORMAT and np.count_nonzero(cells) >= _KERNEL_CELLS:
            return "[" + "".join(_format_doubles(cells, ord(",")))[:-1] + "]"
        return "[" + ",".join([fmt] * len(cells)) % tuple(cells.tolist()) + "]"
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


def _csv_table(header: list[str], columns, trailing: list[str] = ()) -> str:
    """CSV of equal-length columns (arrays, ranges or lists), one format per
    column. A table with at least _KERNEL_CELLS non-zero cells is written by
    _format_doubles, row by row, with its integer and bool cells as doubles:
    `%d` of an integer within 2**53 is `%.17g` of it as a double. Any other
    table takes its cells, interleaved row by row into one flat list, in one
    `%` call on the row format repeated once per row.

    Columns (first, second, values) with 2-D values, doubles, are a grid: a
    row per (first, second) pair, second fastest. For _format_doubles each
    row's first and second cells, formatted once per axis, are its prefix.
    Otherwise each first cell goes by str.replace into one template of the
    second cells, and its values, made Python floats one row at a time to
    bound the peak, by one `%` call."""
    text = [",".join(header) + "\n"]
    if np.ndim(columns[-1]) == 2:
        (first, fmt0), (second, fmt1) = map(_column, columns[:2])
        values = np.asarray(columns[2], dtype=np.float64)
        if np.count_nonzero(values) >= _KERNEL_CELLS:
            heads, tails = (_padded([fmt % cell + "," for cell in axis.tolist()])
                            for axis, fmt in ((first, fmt0), (second, fmt1)))
            prefix = np.concatenate([np.repeat(heads, len(second), axis=1),
                                     np.tile(tails, len(first))])
            text.extend(_format_doubles(values.ravel(), ord("\n"), prefix))
        else:
            template = "".join(f"\0,{fmt1 % cell},{_FLOAT_FORMAT}\n" for cell in second.tolist())
            text += (template.replace("\0", fmt0 % cell) % tuple(row.tolist())
                     for cell, row in zip(first.tolist(), values))
    else:
        cells, fmts = zip(*map(_column, columns))
        width, n_rows = len(cells), len(cells[0])
        if (sum(map(np.count_nonzero, cells)) >= _KERNEL_CELLS
                and all(-2**53 <= column.min() and column.max() <= 2**53
                        for column, fmt in zip(cells, fmts) if fmt is _INT_FORMAT)):
            table = np.column_stack(cells).astype(np.float64, copy=False)
            seps = np.frombuffer(b"," * (width - 1) + b"\n", np.uint8)
            text.extend(_format_doubles(table.ravel(), np.tile(seps, n_rows)))
        else:
            flat = [None] * (width * n_rows)
            for j, column in enumerate(cells):
                flat[j::width] = column.tolist()
            text.append((",".join(fmts) + "\n") * n_rows % tuple(flat))
    text.extend(line + "\n" for line in trailing)
    return "".join(text)


def _padded(cells: list[str]) -> np.ndarray:
    """ASCII strings as the columns of a uint8 array, NUL-padded to one height."""
    return np.array(cells, dtype=bytes).view(np.uint8).reshape(len(cells), -1).T


def _parse_grid(text: str) -> np.ndarray:
    """The points of a LO:HI:POINTS grid: np.linspace(lo, hi, points)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:points, got {text!r}")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be numeric lo:hi:points, got {text!r}")
    if points < 2:
        raise argparse.ArgumentTypeError(f"grid needs at least 2 points, got {points}")
    if not (math.isfinite(hi - lo) and lo < hi):  # also not finite when lo or hi is not
        raise argparse.ArgumentTypeError(f"grid needs finite lo < hi and hi - lo, got {text!r}")
    try:
        return np.linspace(lo, hi, points)
    except (ValueError, IndexError):  # numpy's refusals; from 2**63 - 3 points it is an IndexError
        raise argparse.ArgumentTypeError(
            f"grid of {points} points exceeds numpy's maximum array size") from None


class _Refusal(FsrvError):
    """A normalization certificate refused to pass a density."""


def _certify(what: str, defect: float) -> None:
    if defect > NORM_DEFECT_LIMIT:
        raise _Refusal(f"{what} norm_defect {defect:.3e} exceeds "
                       f"{NORM_DEFECT_LIMIT:.0e}; refusing to emit")


def _flagged(flag: str, fn, *fn_args):
    """Run fn, prefixing any domain error with the flag that caused it."""
    try:
        return fn(*fn_args)
    except FsrvError as exc:
        raise FsrvError(f"{flag}: {exc}") from None


def _cmd_fib(args) -> str:
    value = _flagged("--n", fib_core.fib, args.n)
    if args.output == "json":
        return _dumps({"n": args.n, "value": value})
    return str(value)


def _cmd_density(args) -> str:
    """pdf, limit and sums: sample the density law the subcommand builds on
    the grid. Only pdf has --method, and only pdf reports which route ran."""
    model = _model_from(args)
    law = args.law(args, model)
    method = getattr(args, "method", None)
    if method == "closed" and law.closed is None:
        raise FsrvError(f"--method closed: no closed form for seeds {args.seeds!r}")
    numeric = method == "numeric" or law.closed is None
    support = law.form.support()
    curve = DensityCurve.from_function(law.numeric if numeric else law.closed, args.grid,
                                       support, knots=law.form.knots())
    _certify("density table", curve.norm_defect)
    if args.output == "csv":
        trailing = [f"# norm_defect={_fmt(curve.norm_defect)}"]
        return _csv_table(["x", "density"], (curve.xs, curve.ys), trailing)
    route = {} if method is None else {"method": "numeric" if numeric else "closed"}
    fields = _flagged("--n", law.fields)  # built here: a partial sum's moments may overflow
    return _dumps({
        "kind": "density_curve",
        "label": law.label,
        "x": curve.xs,
        "density": curve.ys,
        "support": support,
        "norm_defect": curve.norm_defect,
        **route,
        **fields,
    })


def _cmd_moments(args) -> str:
    model = _model_from(args)
    mean, variance = _flagged("--n", lambda: marginal.member_form(model, args.n).moments())
    if args.output == "json":
        return _dumps({"n": args.n, "mean": mean, "variance": variance})
    return _csv_table(["n", "mean", "variance"], ([args.n], [mean], [variance]))


def _cmd_ratios(args) -> str:
    rows = _flagged("--n-min/--n-max", marginal.ratio_diagnostics,
                    args.n_min, args.n_max)
    if args.output == "json":
        return _dumps([vars(row) for row in rows])
    header = ["n", "max_ratio", "mode_ratio", "mean_ratio", "var_ratio"]
    return _csv_table(header, [[getattr(row, name) for row in rows] for name in header])


def _cmd_joint(args) -> str:
    model = _model_from(args)
    law = _flagged("--n/--k", joint_predict.joint_law, args.n, args.k)
    defect = abs(joint_predict.joint_normalization_check(law, model) - 1.0)
    _certify("joint density", defect)
    density = joint_predict.joint_pdf(law, model, args.grid0[:, None], args.grid1[None, :])
    if args.output == "csv":
        return _csv_table(["y0", "y1", "density"], (args.grid0, args.grid1, density),
                          [f"# norm_defect={_fmt(defect)}"])
    return _dumps({
        "kind": "joint_density",
        "n": args.n,
        "k": args.k,
        "y0": args.grid0,
        "y1": args.grid1,
        "density": density,
        "norm_defect": defect,
    })


def _cmd_predict(args) -> str:
    model = _model_from(args)
    law = _flagged("--n/--k", joint_predict.joint_law, args.n, args.k)
    predicted = joint_predict.prediction_curve(law, model, args.grid, method=args.method)
    if args.output == "csv":
        return _csv_table(["x", "predicted"], (args.grid, predicted))
    return _dumps({
        "kind": "prediction_curve",
        "n": args.n,
        "k": args.k,
        "method": args.method,
        "x": args.grid,
        "predicted": predicted,
    })


def _cmd_simulate(args) -> str:
    model = _model_from(args)
    config = _flagged("--paths/--horizon/--rng-seed", simulate.SimulationConfig,
                      args.rng_seed, args.paths, args.horizon, model)
    run = _flagged("--workers", simulate.run_simulation, config, args.workers)
    if args.output == "json":
        text = _flagged("--horizon/--seeds", run.summary_json)
    else:
        summary = _flagged("--horizon/--seeds", run.summary)
        columns = (range(config.horizon + 1), summary["mean"], summary["variance"])
        text = _csv_table(["n", "mean", "variance"], columns)
    if args.paths_out is not None:
        columns = (range(config.n_paths), range(config.horizon + 1), simulate.sample_path(run))
        paths_text = _csv_table(["path_index", "n", "value"], columns)
        with open(args.paths_out, "w") as fh:  # only now: a failed render keeps the old file
            fh.write(paths_text)
    return text


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
    p.set_defaults(func=_cmd_density,
                   law=lambda a, model: _flagged("--n", marginal.member_law, model, a.n))

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
                   law=lambda a, model: limits.limit_density_law(model))

    p = subparsers.add_parser("sums", help="density of the partial sum through member n")
    _add_seeds_argument(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="LO:HI:POINTS")
    common(p)
    p.set_defaults(func=_cmd_density,
                   law=lambda a, model: _flagged("--n", limits.sum_density_law, a.n, model))

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


# one parser per process: each would leave argparse's reference cycles behind
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)  # a grid too large to allocate raises MemoryError
        _emit(args.func(args), args.out)
    except NonConvergenceError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except (FsrvError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, _Refusal) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
