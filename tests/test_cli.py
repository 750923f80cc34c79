import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsrv import cli, joint_predict, limits, numerics, simulate
from fsrv.cli import _csv_table, _dumps, main
from fsrv.fib_core import PHI
from fsrv.joint_predict import predict_exponential_4_to_7
from fsrv.limits import (pdf_limit_exponential_closed, pdf_limit_uniform_closed,
                         pdf_sum_exponential_closed)
from fsrv.marginal import (FsrvModel, member_form, pdf_exponential_closed, pdf_uniform_closed,
                           sum_form)
from fsrv.numerics import DEFAULT_CONFIG, DensityCurve
from fsrv.seeds import Exponential, StandardNormal, parse_seed_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fib_plain_output(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "12")
    assert code == 0
    assert out.strip() == "144"


def test_fib_json_output(capsys):
    code, out, _ = run_cli(capsys, "fib", "--n", "10", "--output", "json")
    assert code == 0
    assert json.loads(out) == {"n": 10, "value": 55}


def test_fib_over_bound_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "fib", "--n", "200")
    assert code == 2
    assert "186" in err


def test_pdf_csv_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--seeds", "exp:1", "--n", "4",
                           "--grid", "0:30:300", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,density"
    assert lines[-1].startswith("# norm_defect=")
    assert float(lines[-1].split("=")[1]) <= 1e-6
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 300
    for x_text, density_text in rows[:: 25]:
        x, density = float(x_text), float(density_text)
        assert abs(density - pdf_exponential_closed(4, x)) < 1e-9


def test_pdf_json_has_certificate(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--seeds", "unif01", "--n", "5",
                           "--grid", "0:8:64", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "density_curve"
    assert doc["method"] == "closed"
    assert doc["norm_defect"] <= 1e-6
    assert len(doc["x"]) == len(doc["density"]) == 64


def test_numeric_uniform_pdf_meets_the_default_tolerance(capsys):
    code, out, _ = run_cli(capsys, "pdf", "--seeds", "unif01", "--n", "5", "--grid=-1:14:151",
                           "--method", "numeric", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "numeric"
    error = np.abs(np.array(doc["density"]) - pdf_uniform_closed(5, np.array(doc["x"])))
    assert np.max(error) <= DEFAULT_CONFIG.abs_tol


@pytest.mark.parametrize("seeds,n,grid,xs", [
    ("exp:1", 4, "60:100:5", [60.0, 70.0, 80.0, 90.0, 100.0]),
    ("exp:1", 10, "1000:2000:6", [1000.0, 1200.0, 1400.0, 1600.0, 1800.0, 2000.0]),
    ("exp:1e150", 4, "6e-149:9e-149:2", [6e-149, 9e-149]),
])
def test_numeric_exponential_pdf_tail_matches_the_closed_form(capsys, seeds, n, grid, xs):
    # far in the tail most of each line lies past the seeds' effective end
    # 28.32/rate, so only a line that runs to the true end V0 = 0 keeps it
    code, out, _ = run_cli(capsys, "pdf", "--seeds", seeds, "--n", str(n), f"--grid={grid}",
                           "--method", "numeric", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["x"] == xs
    rate = parse_seed_spec(seeds).rate
    np.testing.assert_allclose(doc["density"], pdf_exponential_closed(n, np.array(xs), rate),
                               rtol=1e-12, atol=0)


def test_pdf_numeric_method_for_table_seed(capsys, tmp_path):
    table = tmp_path / "tri.csv"
    xs = np.linspace(0.0, 2.0, 17)
    rows = "\n".join(f"{x},{1.0 - abs(1.0 - x)}" for x in xs)
    table.write_text(rows + "\n")
    code, out, _ = run_cli(capsys, "pdf", "--seeds", f"table:{table}", "--n", "3",
                           "--grid", "0:7:40", "--output", "json")
    assert code == 0
    assert json.loads(out)["method"] == "numeric"


def test_pdf_closed_method_unavailable(capsys, tmp_path):
    table = tmp_path / "tri.csv"
    xs = np.linspace(0.0, 2.0, 17)
    table.write_text("\n".join(f"{x},{1.0 - abs(1.0 - x)}" for x in xs) + "\n")
    code, _, err = run_cli(capsys, "pdf", "--seeds", f"table:{table}", "--n", "3",
                           "--grid", "0:7:40", "--method", "closed")
    assert code == 2
    assert "--method" in err


def test_moments_row(capsys):
    code, out, _ = run_cli(capsys, "moments", "--seeds", "exp:1", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,mean,variance"
    n, mean, variance = lines[1].split(",")
    assert (int(n), float(mean), float(variance)) == (4, 5.0, 13.0)


def test_ratios_json_converges(capsys):
    code, out, _ = run_cli(capsys, "ratios", "--n-max", "30", "--output", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 3
    last = rows[-1]
    assert last["n"] == 30
    assert abs(last["mean_ratio"] - PHI) < 1e-10


def test_limit_curve_exponential(capsys):
    # the attached =value form lets the grid start at a negative number
    code, out, _ = run_cli(capsys, "limit", "--seeds", "exp:1",
                           "--grid=-2:6:100", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["norm_defect"] <= 1e-6
    assert doc["a_scale"] == pytest.approx(math.sqrt(1.0 + PHI * PHI))


def test_limit_curve_normal_tail_is_the_standard_normal(capsys):
    # normal seeds have the N(0, 1) limit law; adaptive Simpson was off by
    # 8.0e-7 at x = 3.82, 0.3% of the density, and still exited 0
    code, out, _ = run_cli(capsys, "limit", "--seeds", "normal01", "--grid=3.8:3.84:3",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    want = np.exp(-np.square(doc["x"]) / 2.0) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(np.array(doc["density"]) - want)) <= 1e-9


def test_sums_curve(capsys):
    code, out, _ = run_cli(capsys, "sums", "--seeds", "exp:1", "--n", "4",
                           "--grid", "0:80:50", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mean"] == pytest.approx(12.0)  # a_5 + a_6 - 1
    assert doc["norm_defect"] <= 1e-6


def test_sums_equal_coefficients(capsys):
    # S_2 = 2*V0 + 2*V1, a Gamma(2) law with scale 2
    code, out, _ = run_cli(capsys, "sums", "--seeds", "exp:1", "--n", "2",
                           "--grid", "0:10:5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
    assert len(rows) == 5
    for x_text, density_text in rows:
        x = float(x_text)
        assert float(density_text) == pytest.approx(x * math.exp(-x / 2.0) / 4.0,
                                                    rel=1e-15, abs=0.0)


def test_joint_grid_with_certificate(capsys):
    code, out, _ = run_cli(capsys, "joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                           "--grid0", "0:5:8", "--grid1", "0:21:8", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y0,y1,density"
    assert lines[-1].startswith("# norm_defect=")
    assert len(lines) == 2 + 64


def test_predict_matches_closed(capsys):
    code, out, _ = run_cli(capsys, "predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                           "--grid", "1:10:10", "--output", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for x_text, g_text in rows:
        assert abs(float(g_text) - predict_exponential_4_to_7(float(x_text))) < 1e-6


def test_simulate_json_deterministic_across_workers(capsys):
    base = ["simulate", "--seeds", "exp:1", "--paths", "400", "--horizon", "12",
            "--rng-seed", "77", "--output", "json"]
    code1, out1, _ = run_cli(capsys, *base, "--workers", "1")
    code2, out2, _ = run_cli(capsys, *base, "--workers", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["n_paths"] == 400
    assert len(doc["mean"]) == 13


def test_simulate_paths_csv(capsys, tmp_path):
    paths_file = tmp_path / "paths.csv"
    code, out, _ = run_cli(capsys, "simulate", "--seeds", "unif01", "--paths", "3",
                           "--horizon", "4", "--rng-seed", "5", "--output", "csv",
                           "--paths-out", str(paths_file))
    assert code == 0
    assert out.splitlines()[0] == "n,mean,variance"
    lines = paths_file.read_text().strip().splitlines()
    assert lines[0] == "path_index,n,value"
    assert len(lines) == 1 + 3 * 5
    # recorded before the writer moved from one tuple per row to columns
    assert hashlib.sha256(paths_file.read_bytes()).hexdigest() == \
        "345905ab5e8bdca248a6ed3c51bbb34b5f103a315b91008f3bfd22cabd86b44b"


def test_paths_out_grid_table_is_pinned(capsys, tmp_path):
    paths_file = tmp_path / "paths.csv"
    code, _, _ = run_cli(capsys, "simulate", "--seeds", "normal01", "--paths", "900",
                         "--horizon", "40", "--rng-seed", "11", "--paths-out", str(paths_file))
    assert code == 0
    data = paths_file.read_bytes()
    assert data.count(b"\n") == 1 + 900 * 41
    # the bytes of a 36,900-row grid table, pinned across writer changes
    assert hashlib.sha256(data).hexdigest() == \
        "24eafef4f577a46d3a878905a8ed5f58f29cc50c93585591a04363d59a5756ac"


def test_paths_out_keeps_the_old_file_when_rendering_fails(capsys, monkeypatch, tmp_path):
    paths_file = tmp_path / "paths.csv"
    paths_file.write_bytes(b"path_index,n,value\n0,0,1\n")
    render = cli._csv_table

    def failing_render(header, columns, *rest):
        if header[0] == "path_index":
            raise MemoryError("Unable to allocate the paths table")
        return render(header, columns, *rest)

    monkeypatch.setattr(cli, "_csv_table", failing_render)
    code, out, err = run_cli(capsys, "simulate", "--seeds", "unif01", "--paths", "3",
                             "--horizon", "4", "--rng-seed", "5",
                             "--paths-out", str(paths_file))
    assert (code, out, err) == (2, "", "error: Unable to allocate the paths table\n")
    assert paths_file.read_bytes() == b"path_index,n,value\n0,0,1\n"


def test_out_file_writing_and_byte_stability(tmp_path, capsys):
    target1 = tmp_path / "a.csv"
    target2 = tmp_path / "b.csv"
    args = ["pdf", "--seeds", "exp:1", "--n", "6", "--grid", "0:40:100"]
    assert main(args + ["--out", str(target1)]) == 0
    assert main(args + ["--out", str(target2)]) == 0
    capsys.readouterr()
    assert target1.read_bytes() == target2.read_bytes()
    # --out writes exactly the bytes stdout gets, for CSV and for JSON
    for args in (args, ["moments", "--seeds", "exp:1", "--n", "4", "--output", "json"],
                 ["fib", "--n", "12"]):
        target = tmp_path / "out.txt"
        _, out, _ = run_cli(capsys, *args)
        assert main(args + ["--out", str(target)]) == 0
        assert target.read_bytes() == out.encode()


def test_grid_validation_names_flag(capsys):
    finite = "grid needs finite lo < hi"
    for flag, argv, reason in (
            ("--grid", ["pdf", "--seeds", "exp:1", "--n", "4", "--grid", "5:1:10"], finite),
            ("--grid", ["pdf", "--seeds", "exp:1", "--n", "3", "--grid=0:inf:5"], finite),
            ("--grid", ["pdf", "--seeds", "exp:1", "--n", "3", "--grid=-inf:0:5"], finite),
            ("--grid", ["limit", "--seeds", "exp:1", "--grid=nan:1:5"], finite),
            ("--grid", ["limit", "--seeds", "exp:1", "--grid=0:1"], "grid must be lo:hi:points"),
            ("--grid", ["limit", "--seeds", "exp:1", "--grid=0:one:5"], "grid must be numeric"),
            ("--grid", ["limit", "--seeds", "exp:1", "--grid=0:1:1"], "at least 2 points, got 1"),
            ("--grid1", ["joint", "--seeds", "exp:1", "--n", "4", "--k", "3",
                         "--grid0", "0:1:5", "--grid1", "0:inf:5"], finite)):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and reason in err
    simulate = ["simulate", "--seeds", "exp:1", "--paths", "10", "--horizon", "5",
                "--rng-seed", "1"]
    for flag, bad in (("--workers", "0"), ("--paths", "0"), ("--horizon", "1"),
                      ("--rng-seed", "-1"), ("--rng-seed", str(2**64))):
        code, _, err = run_cli(capsys, *simulate, flag, bad)
        assert code == 2
        assert err.startswith("error: ") and flag in err


def test_unknown_seed_family(capsys):
    code, _, err = run_cli(capsys, "pdf", "--seeds", "gamma:2", "--n", "4",
                           "--grid", "0:1:10")
    assert code == 2
    assert "--seeds" in err


@pytest.mark.parametrize("rate", ["inf", "1e-200", "1e200"])
def test_exponential_rate_out_of_range(capsys, rate):
    # each used to print 0,0 or crash with an uncaught arithmetic error
    for argv in (("moments", "--n", "4"), ("limit", "--grid=-1:1:3")):
        code, out, err = run_cli(capsys, argv[0], "--seeds", f"exp:{rate}", *argv[1:])
        assert code == 2 and out == ""
        assert "--seeds" in err


def test_moments_overflow_exits_2_naming_n(capsys):
    # exp:1e-150 has a finite variance 1e300, but member 90's overflows
    code, out, err = run_cli(capsys, "moments", "--seeds", "exp:1e-150", "--n", "90",
                             "--output", "json")
    assert code == 2 and out == ""
    assert "--n" in err and "overflow" in err
    code, out, _ = run_cli(capsys, "moments", "--seeds", "exp:1e-150", "--n", "20",
                           "--output", "json")
    assert code == 0 and math.isfinite(json.loads(out)["variance"])


def test_only_the_commands_that_need_the_moments_refuse_their_overflow(capsys):
    # member 90 and partial sum 88 of exp:1e-150 have an infinite variance:
    # moments and JSON sums (which reports the sum's mean and variance) exit
    # 2, while CSV sums, pdf and limit need no moments and print certified
    # tables
    for argv, want in ((("moments", "--n", "90"), 2),
                       (("sums", "--n", "88", "--grid", "0:1:3", "--output", "json"), 2),
                       (("sums", "--n", "88", "--grid", "0:1:3"), 0),
                       (("pdf", "--n", "90", "--grid", "0:1:3"), 0),
                       (("limit", "--grid=-1:1:3"), 0)):
        code, out, err = run_cli(capsys, argv[0], "--seeds", "exp:1e-150", *argv[1:])
        assert code == want, argv
        if want:
            assert out == "" and "--n" in err and "overflow" in err
        else:
            assert out.endswith("\n") and err == ""


def _large_n_closed(command, seed, n):
    """The closed density the numeric route of command must match, and its
    law's mean and standard deviation (the hypot of the coefficients times
    the seed sd, which overflows nowhere)."""
    std_normal = lambda z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    normal = isinstance(seed, StandardNormal)
    if command == "limit":
        return (std_normal if normal else pdf_limit_exponential_closed), 0.0, 1.0
    form = (member_form if command == "pdf" else sum_form)(FsrvModel(seed, seed), n)
    c0, c1 = float(form.c0), float(form.c1)
    mean, variance = seed.moments()
    sigma = math.hypot(c0 * math.sqrt(variance), c1 * math.sqrt(variance))
    if normal:
        closed = lambda x: std_normal(x / sigma) / sigma
    elif command == "pdf":
        closed = lambda x: pdf_exponential_closed(n, x, seed.rate)
    else:
        closed = lambda x: pdf_sum_exponential_closed(n, x, seed.rate)
    return closed, (c0 + c1) * mean, sigma


@pytest.mark.parametrize("command, seeds", [
    (command, seeds) for command in ("pdf", "sums", "limit")
    for seeds in ("normal01", "exp:1", "exp:1e150", "exp:1e-150")
    if seeds != "exp:1e-150" or command == "pdf"])
def test_numeric_densities_match_their_closed_forms_at_large_n(capsys, monkeypatch, command,
                                                               seeds):
    # the densities' target is on sigma times the density, so neither a
    # large n nor a seed scale of 1e150 or 1e-150 exhausts the budget; sums
    # and limit of exponential seeds take their numeric route once no closed
    # form is found
    monkeypatch.setattr(limits, "closed_form_tag", lambda model: None)
    seed = parse_seed_spec(seeds)
    for n in (35, 38, 60, 80) if command != "limit" else (None,):
        closed, mean, sigma = _large_n_closed(command, seed, n)
        argv = [command, "--seeds", seeds, f"--grid={mean - 3 * sigma!r}:{mean + 3 * sigma!r}:7"]
        argv += ["--n", str(n)] * (n is not None) + ["--method", "numeric"] * (command == "pdf")
        code, out, err = run_cli(capsys, *argv, "--output", "json")
        assert (code, err) == (0, ""), (n, err)
        doc = json.loads(out)
        error = sigma * np.max(np.abs(np.array(doc["density"]) - closed(np.array(doc["x"]))))
        assert error <= 1e-12, (n, error)


def test_grid_whose_span_overflows_exits_2_naming_its_flag(capsys):
    # both ends are finite, but hi - lo is not, and linspace warned and
    # returned NaN before the command refused its grid
    joint = ["joint", "--seeds", "exp:1", "--n", "4", "--k", "3"]
    for flag, argv in (("--grid", ["limit", "--seeds", "exp:1", "--grid=-1e308:1e308:3"]),
                       ("--grid0", joint + ["--grid0=-1e308:1e308:3", "--grid1=0:1:3"]),
                       ("--grid1", joint + ["--grid0=0:1:3", "--grid1=-1e308:1e308:3"])):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"argument {flag}: grid needs finite lo < hi and hi - lo" in err


def test_joint_and_predict_where_member_products_overflow(capsys):
    # c_nk*y0 and c_n*y1 overflow from 5e307 on; joint printed nan at
    # (5e307, 1e308) and (1e308, 1e308), where the exact v1 < 0 makes the
    # density 0, and both commands warned on stderr
    code, out, err = run_cli(capsys, "joint", "--seeds", "exp:1", "--n", "4", "--k", "3",
                             "--grid0=0:1e308:3", "--grid1=0:1e308:3")
    assert (code, err) == (0, "")
    ends = ("0", "5.0000000000000001e+307", "1e+308")
    assert out.splitlines()[:10] == ["y0,y1,density"] + [
        f"{y0},{y1},{0.5 if y0 == y1 == '0' else 0}" for y0 in ends for y1 in ends]
    code, out, err = run_cli(capsys, "predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                             "--grid=1:1e308:3")
    assert (code, out) == (2, "")
    assert err == ("error: marginal density at x=5e+307 is below the floor 1e-12; "
                   "the conditional mean is not identifiable there\n")


@pytest.mark.parametrize("output", ["csv", "json"])
def test_simulate_overflow_exits_2_naming_its_flags(capsys, output):
    # members of exp:1e-150 paths overflow from member 21 on; the summary
    # printed inf (Infinity in JSON) under a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate", "--seeds", "exp:1e-150", "--paths", "3",
                                 "--horizon", "90", "--rng-seed", "1", "--output", output)
    assert code == 2 and out == ""
    assert err.startswith("error: --horizon/--seeds: ") and "overflows" in err


def _flat_table(tmp_path, lo, hi):
    table = tmp_path / "narrow.csv"
    xs = np.linspace(lo, hi, 16)
    table.write_text("\n".join(f"{float(x)!r},1.0" for x in xs) + "\n")
    return f"table:{table}"


def test_limit_on_a_narrow_table_far_from_0_is_the_uniform_limit(capsys, tmp_path):
    # the limit density evaluates V0 + phi*V1 at a_scale*x + b_shift, where
    # adjacent doubles are spacing(b_shift) apart, a step of
    # spacing(b_shift) / a_scale in x; the standardized trapezoid's slope is
    # below 0.19, and the bound allows twice the change such a step makes
    seeds = _flat_table(tmp_path, 1e4, 1e4 + 1e-7)
    code, out, _ = run_cli(capsys, "limit", "--seeds", seeds, "--grid=-1.6:1.6:33",
                           "--output", "json")
    assert code == 0
    doc = json.loads(out)
    bound = 2 * 0.19 * np.spacing(doc["b_shift"]) / doc["a_scale"]
    assert bound < 1e-4 and doc["norm_defect"] <= 1e-6
    np.testing.assert_allclose(doc["density"], pdf_limit_uniform_closed(np.array(doc["x"])),
                               rtol=0.0, atol=bound)


def test_limit_on_a_table_too_narrow_for_its_offset_fails_cleanly(capsys, tmp_path):
    # its variance cancelled to a negative number, and limit crashed in
    # math.sqrt; the knots near 3e4 now lose too much for the certificate
    seeds = _flat_table(tmp_path, 1e4, 1e4 + 1e-8)
    code, out, err = run_cli(capsys, "limit", "--seeds", seeds, "--grid=-2:2:5")
    assert code in (2, 3) and out == ""
    assert err.startswith("error: ")


def _refuse_density(monkeypatch):
    bogus = DensityCurve(xs=np.array([0.0, 1.0]), ys=np.array([0.5, 0.5]), norm_defect=5e-4)
    monkeypatch.setattr(DensityCurve, "from_function", lambda *args, **kwargs: bogus)


def _fail_in_a_draw_helper(monkeypatch):
    # two CPUs, so a run of two chunks or more starts one helper thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    draw = simulate._draw_rows

    def failing_draw(config, start_path, rows):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError(f"Unable to allocate the pairs of path {start_path}")
        draw(config, start_path, rows)

    monkeypatch.setattr(simulate, "_draw_rows", failing_draw)


_EXIT_CASES = {
    # case: (exit code, argv, setup, start of the error line)
    "argparse": (2, ["pdf", "--seeds", "exp:1", "--n", "4", "--grid", "5:1:10"], None,
                 "fsrv pdf: error: argument --grid: "),
    "domain": (2, ["joint", "--seeds", "exp:1", "--n", "1", "--k", "1", "--grid0", "0:1:3",
                   "--grid1", "0:1:3"], None, "error: --n/--k: member index must be >= 2"),
    "unwritable_out": (2, ["fib", "--n", "5", "--out", "{missing}"], None,
                       "error: [Errno 2] No such file or directory: "),
    # 10^17 points or paths exceed any address space: numpy refuses at once
    "pdf_too_large": (2, ["pdf", "--seeds", "exp:1", "--n", "4",
                          "--grid", "0:1:100000000000000000"], None,
                      "error: Unable to allocate "),
    "simulate_too_large": (2, ["simulate", "--seeds", "exp:1", "--paths", "100000000000000000",
                               "--horizon", "5", "--rng-seed", "1"], None,
                           "error: Unable to allocate "),
    "simulate_helper_fails": (2, ["simulate", "--seeds", "exp:1", "--paths", "70000",
                                  "--horizon", "5", "--rng-seed", "1"],
                              _fail_in_a_draw_helper, "error: Unable to allocate the pairs "),
    # a large-n limit README documents: a predict slice over y1, inside the
    # bulk of member 20, runs out of budget at its absolute 1e-9
    "quad_tol": (3, ["predict", "--seeds", "normal01", "--n", "20", "--k", "2",
                     "--grid=3382:6765:5"], None, "error: quadrature did not converge: "),
    "density_certificate": (3, ["pdf", "--seeds", "exp:1", "--n", "4", "--grid", "0:1:2"],
                            _refuse_density,
                            "error: density table norm_defect 5.000e-04 exceeds 1e-06; "
                            "refusing to emit"),
    "joint_certificate": (3, ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                              "--grid0", "0:5:4", "--grid1", "0:21:4"],
                          lambda mp: mp.setattr(joint_predict, "joint_normalization_check",
                                                lambda *args: 1.01),
                          "error: joint density norm_defect 1.000e-02 exceeds 1e-06; "
                          "refusing to emit"),
}


@pytest.mark.parametrize("case", _EXIT_CASES)
def test_each_failure_class_exits_with_its_code(capsys, monkeypatch, tmp_path, case):
    # main alone writes output and errors: a failing command prints nothing
    # to stdout and one error line to stderr, after argparse's usage lines
    expected, argv, setup, start = _EXIT_CASES[case]
    if setup is not None:
        setup(monkeypatch)
    argv = [arg.format(missing=tmp_path / "missing" / "out.csv") for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on its own
        code = exc.code
    captured = capsys.readouterr()
    *usage, line = captured.err.splitlines()
    assert (code, captured.out) == (expected, "")
    assert line.startswith(start)
    assert usage == [] or case == "argparse"


def test_main_leaves_no_cyclic_garbage(capsys, tmp_path):
    # argparse objects refer to each other in cycles; a parser built per
    # call left them for the collector, so a long-lived process grew
    table = tmp_path / "tri.csv"
    xs = np.linspace(0.0, 2.0, 17)
    table.write_text("\n".join(f"{x},{1.0 - abs(1.0 - x)}" for x in xs) + "\n")
    argv = ("pdf", "--seeds", f"table:{table}", "--n", "3", "--grid", "0:7:8")
    assert run_cli(capsys, *argv)[0] == 0  # warm-up: builds the parser
    gc.collect()
    gc.disable()
    try:
        assert run_cli(capsys, *argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_console_entry_point_runs():
    # the child imports the fsrv this process imported, from a checkout or installed
    src = str(Path(joint_predict.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-m", "fsrv", "fib", "--n", "12"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout.strip() == "144"


# sha256 of analytic CLI stdout, recorded before the linear-form support and
# moments moved into one pair of helpers; "TABLE" stands for the 17-node
# triangle table seed on [0, 2]. The three table digests were re-recorded
# when table-seed densities moved to exact per-piece quadrature, which moved
# their values by rounding only. pdf_exp_numeric, pdf_normal_numeric,
# limit_exp, limit_normal, sums_exp and predict_exp were re-recorded when the
# densities moved to arrays: numpy's exp differs from math.exp in the last
# bit, which moved one or two values of each by at most 4.2e-16 relative,
# and limit_normal's norm_defect |mass - 1| by 2.2e-16, one ulp of the mass.
# Every smooth-seed digest was re-recorded when adaptive quadrature moved to
# Gauss-Kronrod panels: the closed-form commands changed only in their
# norm_defect, and the numeric densities moved toward their closed forms.
# limit_unif, joint_unif and joint_unif_json were re-recorded when unif01
# went to exact quadrature: only their norm_defect moved, from 2.2e-16 to 0
# and to 8.9e-16 (rounding of the exact mass). predict_table_csv was
# re-recorded when the slice cuts lost their duplicate end columns, which
# moved its last value by 1.7e-16 relative; simulate_csv when the summary
# moved to the seed pairs' moments, which moved it by rounding only. Every
# digest of a numeric density or predictor (15 of them) was re-recorded when
# densities moved to integrals over the seed coordinate V1, to a target on
# sigma times the density: each value moved by at most 5.1e-16 of its
# command's peak, except limit_table_shifted's, by 1.02e-15 at x = 0. The five
# predictor digests were re-recorded when predict took its denominator from
# the slice mass over the numerator's cuts, at the package tolerance 1e-9:
# each value moved by at most 8.4e-15 of its command's peak. The 11 digests
# whose adaptive integrals bisect past the first level were re-recorded when a
# panel that misses at depth 1 went straight to its four depth-3 quarters:
# each value moved by at most 1.5e-16 of its command's peak (quad_predict_normal
# by 9.2e-16), and a norm_defect by at most 8.7e-14 (pdf_exp_numeric, 9.9e-13
# to 1.08e-12). pdf_exp_numeric and quad_pdf_exp_numeric were re-recorded when
# every line over a seed pair ended by one rule (numerics.line_points), which
# runs the exp:1 lines to their true ends: only their norm_defect moved, from
# 1.08e-12 and 9.9e-13 to 0, and every density value held. pdf_exp_closed,
# limit_exp, limit_exp_rate, sums_exp and sums_exp_rate were re-recorded when
# the closed exponential density took its difference of exponentials through
# expm1: 4 of pdf_exp_closed's 9 values moved, 3 of limit_exp's (and
# limit_exp_rate's), 1 of sums_exp's and 1 of sums_exp_rate's, each by at
# most 3.7e-16 relative, and sums_exp's norm_defect went from 0 to 3.3e-16.
# predict_closed_csv and predict_closed_from_0 were re-recorded when the
# closed predictor took numpy's expm1 for math's: 23 and 30 of their values
# moved, each by at most 2.3e-16 relative. limit_exp, limit_exp_rate and
# limit_unif were re-recorded when the closed limit densities mapped x from
# the support's lower end, a pair of doubles (unif01 reading the symmetric
# density at -|x|): 3 of limit_exp's 9 values moved (and limit_exp_rate's),
# each by at most 1.2e-15 relative, and 6 of limit_unif's, by at most 1.7e-15.
_ANALYTIC_DIGESTS = [
    ("pdf_exp_closed", ["pdf", "--seeds", "exp:1", "--n", "5", "--grid", "0:20:9",
                        "--method", "closed"],
     "55987afc9c3e901843451a015287ef5ac032d3130610ecb7ac9d9d4eb8967da3"),
    ("pdf_exp_numeric", ["pdf", "--seeds", "exp:1", "--n", "5", "--grid", "0:20:9",
                         "--method", "numeric", "--output", "json"],
     "650e110c5fecc5343e091c0388d9554f14cccdd6860bb86348a955d3537247ac"),
    ("pdf_normal_numeric", ["pdf", "--seeds", "normal01", "--n", "4", "--grid=-6:6:7",
                            "--method", "numeric"],
     "16c7487497674691861f68aa7d921d4ef4218b7b047c6880bebec867abf2baa2"),
    ("pdf_table", ["pdf", "--seeds", "TABLE", "--n", "3", "--grid", "0:7:8", "--output", "json"],
     "061dddc4b42233d2e4443700ef4576d26d95237bcef2498875b4e239933da669"),
    ("limit_exp", ["limit", "--seeds", "exp:1", "--grid=-2:4:9"],
     "c303f59284b6c846539e8b13ac610d3a395d077eacacc61ba43e5eb24f0b2a41"),
    ("limit_unif", ["limit", "--seeds", "unif01", "--grid=-2:2:9", "--output", "json"],
     "cb4dcc61cc8d959777e11b2d5301216dd4d7ff639e209deefbf44ff69be15e39"),
    ("limit_normal", ["limit", "--seeds", "normal01", "--grid=-3:3:7"],
     "711fb846c2e729178ed23ba5186a2253e85a89f77cacac556cf90d18334334f9"),
    ("limit_table", ["limit", "--seeds", "TABLE", "--grid=-3:3:7", "--output", "json"],
     "48e0c7a4582027013937cffe917464cbb8843de00a19138ea84ee7ad3d4c2187"),
    ("sums_exp", ["sums", "--seeds", "exp:1", "--n", "4", "--grid", "0:30:7", "--output", "json"],
     "31ff0880557a73d4e07656cad8e106ce21078196e91d5590ea4c38656d299170"),
    ("sums_normal", ["sums", "--seeds", "normal01", "--n", "4", "--grid=-10:10:7",
                     "--output", "json"],
     "43b958225aedaf2beb3fe6793ba25b99d670e41698ff45c51301500d9804834a"),
    ("sums_table", ["sums", "--seeds", "TABLE", "--n", "3", "--grid", "0:16:7", "--output", "json"],
     "ade6bb671a3ef71ef0ad4cabd0ddc7029c4b0d0d8bdaa92a23b4c3589e926c0f"),
    ("joint_unif", ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                    "--grid0", "0:5:4", "--grid1", "0:21:4"],
     "11508bd1d3bc495a710a4720432b5b8c395027f31ea8cdd3c8787cf6bd6fdd2f"),
    ("predict_exp", ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                     "--grid", "0.5:10:5", "--output", "json"],
     "c20d4233e1493d1e289d619f13f07b0422d9429ecec1538ffc79f1870dd879b7"),
    ("moments_normal", ["moments", "--seeds", "normal01", "--n", "30", "--output", "json"],
     "a9258a0c8fc5628b73e468472954262847fd0946485d78cd794848c8bd094817"),
    # recorded before the emit layer moved from cells to columns
    ("ratios_csv", ["ratios", "--n-max", "30"],
     "c5688b81a09f1e4765b8135666af272c198b713b59c5c32b5e7809a8e553d7d5"),
    ("ratios_json", ["ratios", "--n-max", "30", "--output", "json"],
     "61759d80178d622fee326fbc08bdfa29b1380ed233e8d059436b6af9585cc829"),
    ("moments_csv", ["moments", "--seeds", "normal01", "--n", "30"],
     "fbcf7c6bdb59d3e3e1b34b9939da72c8a7ce8d909fbb267aaff90aba3eb054e7"),
    ("predict_exp_csv", ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                         "--grid", "0.5:10:5"],
     "3a8819da99897619927be0daa962157d3d2df7b87e4a2831b71013d878ce6708"),
    ("predict_table_csv", ["predict", "--seeds", "TABLE", "--n", "4", "--k", "3",
                           "--grid", "0.5:5:5"],
     "3e007442db721f0e6126989382995b58a74ca05fd42a8c3adf8bb67ec7bce192"),
    ("joint_unif_json", ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                         "--grid0", "0:5:4", "--grid1", "0:21:4", "--output", "json"],
     "8bea4ab148eedd105d32e731f940ce4d33c7be22f3dd0b587bb9a7713d5af061"),
    ("simulate_csv", ["simulate", "--seeds", "normal01", "--paths", "50", "--horizon", "10",
                      "--rng-seed", "7"],
     "7d85bc03f8d63424c79398255bd3e240e1de49480741641be72ed68fcd022453"),
    ("fib_csv", ["fib", "--n", "150"],
     "e201f47445320bff4139b815f1565ef63d0d444df73d44643bcffc8143c6e240"),
    ("fib_json", ["fib", "--n", "150", "--output", "json"],
     "2e297b3300310faf3ec3d5472f7aba4c11d85d6ec68d1774e594b1427ce43171"),
    # recorded before the CSV writer moved to one format call per block of
    # rows and joint to axes formatted once: a non-square grid tells an axis
    # repeated by p0 from one repeated by p1
    ("joint_nonsquare_csv", ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                             "--grid0", "0:5:3", "--grid1", "0:21:5"],
     "d5c8429d6afa4e544a36833a77c66aedda774f9cef0ceb6fcadd84545a9056fd"),
    ("joint_nonsquare_json", ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                              "--grid0", "0:5:3", "--grid1", "0:21:5", "--output", "json"],
     "5a3e5b8feaed1182bfa4c9ba6179c0a8fe474884a79bcf3ac74a7614ac7bc794"),
    # recorded before members, partial sums and the limit law became one
    # linear form of the seeds, to pin the routes no digest above covers:
    # the rate-free closed limit at another rate (hence limit_exp's digest),
    # the closed sum at another rate, the exact numeric sum, the support of
    # a seed with infinite tails, and a form whose support starts far from 0
    # ("SHIFTED_TABLE" is the triangle table moved to [5, 7])
    ("limit_exp_rate", ["limit", "--seeds", "exp:2.5", "--grid=-2:4:9"],
     "c303f59284b6c846539e8b13ac610d3a395d077eacacc61ba43e5eb24f0b2a41"),
    ("sums_exp_rate", ["sums", "--seeds", "exp:2.5", "--n", "4", "--grid", "0:12:7"],
     "baf2a87c1d7a49aafc0e565f4058fc6c425367df2b95d6ba20905e6db8fa9bfd"),
    ("sums_unif", ["sums", "--seeds", "unif01", "--n", "3", "--grid", "0:7:8"],
     "5b29f22dcf7c90aa3f2295444967b6027c1e16e000071e463e08980befd2276d"),
    ("pdf_normal_closed_json", ["pdf", "--seeds", "normal01", "--n", "5", "--grid=-20:20:9",
                                "--method", "closed", "--output", "json"],
     "4f4f538de2cb2e513c2e0153867259ecfa3cdf521ebe938414bc1dbccb862430"),
    ("limit_table_shifted", ["limit", "--seeds", "SHIFTED_TABLE", "--grid=-3:3:7",
                             "--output", "json"],
     "0810797b227632abbbd4198ae7a483fcce34019bc377a2948700b58222abfb7d"),
    # recorded before the quadrature engine's bisection loop moved to column
    # arrays: the six numeric commands of the quad_smooth benchmark at their
    # nominal grids, among them the adaptive predictor on normal seeds
    ("quad_pdf_normal_numeric", ["pdf", "--seeds", "normal01", "--n", "4", "--grid=-15:15:60",
                                 "--method", "numeric"],
     "d335b0d700b7e8ba3fe6d6fe07f33f8a6e00e3012ce3b989da3786f7d9d8e09e"),
    ("quad_limit_normal", ["limit", "--seeds", "normal01", "--grid=-4:4:60"],
     "0ffde86aecf8d099549e863c8fd0d4d182de7ba133972195ae3947fe938fe5f1"),
    ("quad_sums_normal", ["sums", "--seeds", "normal01", "--n", "4", "--grid=-30:30:60"],
     "c3b4c40953540249a9f478ac034a5f8915ea2acf265e0b8f0b3ce055d321d574"),
    ("quad_pdf_exp_numeric", ["pdf", "--seeds", "exp:1", "--n", "10", "--grid=0:600:300",
                              "--method", "numeric"],
     "38acebc19468896ab905fd472888f83adbce84378dc8ba046c6a2e80a7c06c8b"),
    ("quad_predict_exp", ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                          "--grid=0.1:20:50"],
     "cd873ab84d8ee589e8a6dd4a006920c6b7488c84ab9fb3c16012f6b57195ed57"),
    ("quad_predict_normal", ["predict", "--seeds", "normal01", "--n", "5", "--k", "2",
                             "--grid=-10:10:20"],
     "bd787d37659d8f82c015aa6fbf3947269062136044d4c14924222205d948e4c0"),
    # recorded before the closed-form predictor moved from one call per grid
    # point to the array: the emit_bound benchmark's grid, and one from 0,
    # where the removable singularity prints 0
    ("predict_closed_csv", ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                            "--grid", "0.1:20:2000", "--method", "closed_form"],
     "292d6f61b626cdc7e6fd619db1f3d89212cb27fa5b9309f53832cf5b964c54ac"),
    ("predict_closed_from_0", ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                               "--grid", "0:20:2001", "--method", "closed_form"],
     "9883e3ee9257e1406ca6bda34c998a17ed29597fc94741e5d2e7a3872b4c93d1"),
]


@pytest.mark.parametrize("argv,stdout_sha", [case[1:] for case in _ANALYTIC_DIGESTS],
                         ids=[case[0] for case in _ANALYTIC_DIGESTS])
def test_analytic_outputs_are_pinned(capsys, tmp_path, argv, stdout_sha):
    tables = {}
    for name, lo in (("TABLE", 0.0), ("SHIFTED_TABLE", 5.0)):
        tables[name] = tmp_path / f"{name}.csv"
        xs = np.linspace(lo, lo + 2.0, 17)
        tables[name].write_text("\n".join(f"{x},{1.0 - abs(1.0 - (x - lo))}" for x in xs) + "\n")
    argv = [f"table:{tables[arg]}" if arg in tables else arg for arg in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


# Seed-density points (the sum of np.size(x) over every seed pdf call) of the
# quad_smooth commands above, recorded with their digests: the engine's nodes
# are its work, so a change that keeps the bytes but adds nodes shows here.
# The normal01 density and predict counts were re-recorded when densities
# moved to the seed coordinate V1, the normal01 predict count (27,600
# before) when predict took its denominator from the slice mass, and the four
# normal01 counts (68,760, 67,200, 70,200 and 13,320 before) when a panel
# that misses at depth 1 went straight to its four depth-3 quarters.
_QUAD_SMOOTH_POINTS = {"quad_pdf_normal_numeric": 62_160, "quad_limit_normal": 60_600,
                       "quad_sums_normal": 62_160, "quad_pdf_exp_numeric": 26_940,
                       "quad_predict_exp": 6_000, "quad_predict_normal": 12_480}

# Engine steps of the same commands, one per integrand call that
# numerics._integrate_rows makes: each is a round of numpy calls, whatever its
# size. They were 24, 19, 24, 13, 2 and 7
# while a panel that missed at depth 1 was halved instead of quartered, and the
# exp count was 11 while adaptive pieces went in batches of 128 within a row
# batch.
_QUAD_SMOOTH_STEPS = {"quad_pdf_normal_numeric": 15, "quad_limit_normal": 11,
                      "quad_sums_normal": 15, "quad_pdf_exp_numeric": 9,
                      "quad_predict_exp": 2, "quad_predict_normal": 5}


@pytest.mark.parametrize("name,points", _QUAD_SMOOTH_POINTS.items())
def test_quad_smooth_commands_evaluate_pinned_seed_points(capsys, monkeypatch, name, points):
    argv = next(case[1] for case in _ANALYTIC_DIGESTS if case[0] == name)
    evaluated = []
    for cls in (Exponential, StandardNormal):
        def counted(self, x, pdf=cls.pdf):
            evaluated.append(np.size(x))
            return pdf(self, x)
        monkeypatch.setattr(cls, "pdf", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert sum(evaluated) == points


@pytest.mark.parametrize("name,steps", _QUAD_SMOOTH_STEPS.items())
def test_quad_smooth_commands_take_pinned_engine_steps(capsys, monkeypatch, name, steps):
    argv = next(case[1] for case in _ANALYTIC_DIGESTS if case[0] == name)
    calls = []
    integrate_rows = numerics._integrate_rows

    def counted(f, *args):
        return integrate_rows(lambda t, row: calls.append(1) or f(t, row), *args)
    for module in (numerics, joint_predict):
        monkeypatch.setattr(module, "_integrate_rows", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) == steps


# --- the column formatter against the per-cell formatter it replaced --------

def _cell_fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _cell_dumps(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_cell_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_cell_dumps(v) for v in obj) + "]"
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    return _cell_fmt(obj)


def _cell_csv_table(header, rows, trailing=()) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_cell_fmt(cell) for cell in row) for row in rows)
    lines.extend(trailing)
    return "\n".join(lines) + "\n"


_EDGE_DOUBLES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16,
                 1e17, 123456789012345678.0]
doubles = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
int64s = st.integers(-2**63, 2**63 - 1)


@given(st.lists(st.tuples(int64s, doubles, st.booleans()), max_size=40))
@example([(2**62 * (i % 3 - 1) + i, v, i % 2 == 0) for i, v in enumerate(_EDGE_DOUBLES)])
def test_column_formatter_matches_cells_on_doubles(rows):
    expected = _cell_csv_table(["i", "v", "b"], rows, ["# end"])
    ints, values, flags = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    as_arrays = (np.array(ints, dtype=np.int64), np.array(values, dtype=np.float64),
                 np.array(flags, dtype=bool))
    assert _csv_table(["i", "v", "b"], (ints, values, flags), ["# end"]) == expected
    assert _csv_table(["i", "v", "b"], as_arrays, ["# end"]) == expected
    # float32 cells widen to the same doubles cell by cell and by column
    with np.errstate(over="ignore"):
        narrow = np.array(values, dtype=np.float32)
    assert _csv_table(["v"], (narrow,)) == _cell_csv_table(["v"], zip(narrow))
    for column in as_arrays + (narrow,):
        assert _dumps(column) == _cell_dumps(column)
    assert _dumps(values) == _cell_dumps(values)


@given(st.lists(int64s, max_size=30), st.lists(st.booleans(), max_size=30))
def test_column_formatter_matches_cells_on_integers_and_bools(ints, flags):
    for column in (ints, np.array(ints, dtype=np.int64), flags, np.array(flags, dtype=bool),
                   range(len(ints))):
        expected = _cell_csv_table(["c"], zip(column))
        assert _csv_table(["c"], (column,)) == expected
        if isinstance(column, np.ndarray):
            assert _dumps(column) == _cell_dumps(column)
    unsigned = np.array([abs(i) for i in ints], dtype=np.uint64)
    assert _dumps(unsigned) == _cell_dumps(unsigned)


@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_dumps_matches_cells_on_2d_arrays_and_documents(rows, cols, data):
    values = data.draw(st.lists(doubles, min_size=rows * cols, max_size=rows * cols))
    grid = np.array(values, dtype=np.float64).reshape(rows, cols)
    big = data.draw(st.integers(-10**40, 10**40))  # Python ints beyond int64, as fib's
    doc = {"kind": "t", "n": big, "flag": True, "none": None, "grid": grid,
           "x": grid.ravel(), "ints": np.arange(cols), "support": (0.0, math.inf),
           "defect": np.float64(values[0]) if values else np.float32(0.5),
           "rows": [{"k": np.int64(rows), "v": -0.0}]}
    assert _dumps(doc) == _cell_dumps(doc)


# row counts about 2,048 and twice it, kept as regression inputs
@pytest.mark.parametrize("rows", [2047, 2048, 2049, 4097])
def test_column_formatter_matches_cells_on_long_tables(rows):
    ints = (np.arange(rows, dtype=np.int64) - rows // 2) * (2**62 // rows)
    flags = np.arange(rows) % 3 == 0
    values = np.array([_EDGE_DOUBLES[i % len(_EDGE_DOUBLES)] for i in range(rows)])
    reverse = values[::-1]
    expected = _cell_csv_table(["i", "b", "v", "s"], zip(ints, flags, values, reverse),
                               ["# end"])
    assert _csv_table(["i", "b", "v", "s"], (ints, flags, values, reverse),
                      ["# end"]) == expected
    assert _csv_table(["i", "b", "v", "s"], (ints.tolist(), flags.tolist(), values.tolist(),
                                             reverse.tolist()), ["# end"]) == expected
    for column in (ints, flags, values):
        assert _dumps(column) == _cell_dumps(column)


def test_column_formatter_with_no_rows_keeps_its_trailing_lines():
    expected = _cell_csv_table(["i", "v"], [], ["# end"])
    assert expected == "i,v\n# end\n"
    assert _csv_table(["i", "v"], ([], np.array([])), ["# end"]) == expected
    assert _csv_table(["i", "v"], (range(0), np.array([], dtype=np.int64)), ["# end"]) == expected
    assert _dumps(np.array([])) == _dumps(np.array([], dtype=bool)) == "[]"


_GRID_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 2.0**53, 0.1,
               math.nan, math.inf]
grid_cells = st.one_of(doubles, st.integers(-2**53, 2**53).map(float))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300), st.booleans(), st.booleans(),
       st.lists(grid_cells, max_size=20), st.integers(0, 2**32 - 1))
@example(1, 1, False, False, [], 0)
@example(3, 5, True, False, [], 1)
@example(4, 2, False, True, [], 2)
def test_grid_form_matches_a_per_row_reference(p0, p1, int0, int1, drawn, seed):
    # a grid of (first, second, 2-D values) is the table of every cell of
    # first, each with every cell of second in order, as if each row were
    # formatted on its own
    rng = np.random.default_rng(seed)
    pool = np.array(_GRID_EDGES + drawn)
    first, second = (range(p) if as_int else rng.choice(pool, p)
                     for p, as_int in ((p0, int0), (p1, int1)))
    values = rng.choice(pool, (p0, p1))
    expected = "a,b,v\n" + "".join(
        "%s,%s,%.17g\n" % (_cell_fmt(a), _cell_fmt(b), v)
        for a, row in zip(first, values.tolist()) for b, v in zip(second, row)) + "# end\n"
    assert _csv_table(["a", "b", "v"], (first, second, values), ["# end"]) == expected


# --- the double kernel against `%` -------------------------------------------

_CUT, _BLOCK = cli._KERNEL_CELLS, cli._BLOCK_CELLS


def _kernel_lines(values) -> list[str]:
    return "".join(cli._format_doubles(np.asarray(values, dtype=np.float64),
                                       ord("\n"))).split("\n")[:-1]


def _percent_lines(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64),
       st.sampled_from([_CUT - 1, _CUT, _CUT + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]),
       st.integers(0, 2**32 - 1))
def test_double_kernel_matches_percent_on_raw_bit_patterns(patterns, size, seed):
    # drawn 64-bit patterns as doubles, among uniformly random ones and a
    # third of the cells where %.17g writes no exponent, in arrays about the
    # cut-over and the block edge: every cell is the text of `%`, in and out
    # of the kernel
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64 - 1, size, dtype=np.uint64, endpoint=True).view(np.float64)
    thirds = len(values[::3])
    values[::3] = rng.choice([-1.0, 1.0], thirds) * 10.0 ** rng.uniform(-5, 17, thirds)
    values[rng.choice(size, len(patterns), replace=False)] = (
        np.array(patterns, dtype=np.uint64).view(np.float64))
    expected = _percent_lines(values)
    assert _kernel_lines(values) == expected
    assert _dumps(values) == "[" + ",".join(expected) + "]"


def _kernel_sweep() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers]
    for direction in (math.inf, -math.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    rng = np.random.default_rng(34)
    ties = [float(f"{d}5e{k}") for d, k in zip(rng.integers(10**16, 10**17, 2000).tolist(),
                                                rng.integers(-300, 290, 2000).tolist())]
    # exact ties: n / 2**m whose 18 significant digits end in 5
    exact = [n / 2**m for m in range(1, 26)
             for n in rng.integers(-(-10**17 // 5**m), 10**18 // 5**m, 40).tolist()
             if n % 2 and n < 2**53]
    ends = [np.nextafter(end, toward) for end in (1e-280, 1e280)
            for toward in (0.0, end, math.inf)]
    specials = [0.0, -0.0, 5e-324, 2.2250738585072009e-308 / 3, 2.2250738585072009e-308,
                math.inf, -math.inf, math.nan]
    values = np.concatenate(near + [ties, exact, ends, 2.0 ** np.arange(-1074, 1024),
                                     specials])
    return np.concatenate([values, -values])


def test_double_kernel_matches_percent_on_pinned_sweeps():
    # powers of ten at +-3 ulps, 18-digit near and exact ties, the ends of
    # the kernel's fast range, powers of two, zeros, subnormals and
    # non-finite values, each also negated
    values = _kernel_sweep()
    expected = _percent_lines(values)
    assert _kernel_lines(values) == expected
    assert _dumps(values) == "[" + ",".join(expected) + "]"


def _nonzero_table(nonzero: int, seed: int):
    """Columns (int64, bool, float64, float32) with exactly `nonzero`
    non-zero cells in all: surplus cells are zeroed at random, but not the
    integer column's ends +-2**53."""
    rows = nonzero // 2
    rng = np.random.default_rng(seed)
    ints = rng.integers(-2**53, 2**53, rows, endpoint=True)
    ints[-3:] = (-2**53, 2**53, 0)
    flags = rng.random(rows) < 0.75
    values = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    values[::9] = rng.choice(_EDGE_DOUBLES, len(values[::9]))
    narrow = rng.standard_normal(rows).astype(np.float32)
    narrow[::5] = 0
    columns = [ints, flags, values, narrow]
    cells = [(j, i) for j, column in enumerate(columns)
             for i in np.flatnonzero(column[:-3] if j == 0 else column).tolist()]
    for pick in rng.choice(len(cells), len(cells) + 2 - nonzero, replace=False).tolist():
        j, i = cells[pick]
        columns[j][i] = 0
    assert sum(map(np.count_nonzero, columns)) == nonzero
    return columns


def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    real = cli._format_doubles
    monkeypatch.setattr(cli, "_format_doubles", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("nonzero, kernel", [(_CUT - 1, False), (_CUT, True), (_CUT + 1, True)])
def test_tables_about_the_cut_over_match_cells(monkeypatch, nonzero, kernel):
    # the kernel writes a table with at least _KERNEL_CELLS non-zero cells,
    # `%` any smaller one, and both give the text of the per-cell reference
    calls = _count_kernel_calls(monkeypatch)
    columns = _nonzero_table(nonzero, nonzero)
    header = ["i", "b", "v", "f"]
    expected = _cell_csv_table(header, zip(*columns), ["# end"])
    assert _csv_table(header, columns, ["# end"]) == expected
    assert _csv_table(header, [column.tolist() for column in columns], ["# end"]) == expected
    assert bool(calls) == kernel
    # an integer beyond 2**53 would not print exactly as a double
    wide = [columns[0] * 4 + 1] + columns[1:]
    assert _csv_table(header, wide) == _cell_csv_table(header, zip(*wide))
    for column in columns[2:]:  # JSON arrays with 5 zeros and size non-zero cells
        for size in (_CUT - 1, _CUT):
            cells = np.concatenate([np.resize(column[column != 0], size),
                                    np.zeros(5, column.dtype)])
            calls.clear()
            assert _dumps(cells) == _cell_dumps(cells)
            assert bool(calls) == (size == _CUT)


def _grid_reference(first, second, values) -> str:
    return "a,b,v\n" + "".join(
        "%s,%s,%.17g\n" % (_cell_fmt(a), _cell_fmt(b), v)
        for a, row in zip(first, values.tolist()) for b, v in zip(second, row)) + "# end\n"


@pytest.mark.parametrize("shape, nonzero, kernel", [((100, 100), 100, False),
                                                    ((100, 100), _CUT, True),
                                                    ((2000, 41), 2000 * 41, True)])
def test_grid_form_about_the_cut_over_matches_a_per_row_reference(monkeypatch, shape, nonzero,
                                                                 kernel):
    # a mostly zero joint grid stays below the cut-over; the --paths-out
    # shape, 2,000 paths of 41 members, is written by the kernel across
    # several blocks
    calls = _count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(nonzero)
    values = np.zeros(shape)
    cells = rng.choice(values.size, nonzero, replace=False)
    values.flat[cells] = rng.standard_normal(nonzero) * 10.0 ** rng.integers(-8, 8, nonzero)
    values.flat[cells[:5]] = (math.nan, math.inf, 1e300, -5e-324, 0.5)
    first, second = range(shape[0]), np.linspace(-1.0, 1.0, shape[1])
    expected = _grid_reference(first, second, values)
    assert _csv_table(["a", "b", "v"], (first, second, values), ["# end"]) == expected
    assert bool(calls) == kernel


def test_import_builds_no_formatting_tables():
    # the kernel's tables are built on first use, and nothing it needs
    # pulls in fractions or decimal: start-up pays for neither
    src = str(Path(joint_predict.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, fsrv.cli as cli; "
            "print('fractions' in sys.modules, 'decimal' in sys.modules, "
            "cli._kernel_tables.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False", "0"]
