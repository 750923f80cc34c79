import gc
import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fsrv import joint_predict
from fsrv.cli import _csv_table, _dumps, main
from fsrv.fib_core import PHI
from fsrv.joint_predict import predict_exponential_4_to_7
from fsrv.marginal import pdf_exponential_closed
from fsrv.numerics import DensityCurve


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
    for flag, argv in (
            ("--grid", ["pdf", "--seeds", "exp:1", "--n", "4", "--grid", "5:1:10"]),
            ("--grid", ["pdf", "--seeds", "exp:1", "--n", "3", "--grid=0:inf:5"]),
            ("--grid", ["pdf", "--seeds", "exp:1", "--n", "3", "--grid=-inf:0:5"]),
            ("--grid", ["limit", "--seeds", "exp:1", "--grid=nan:1:5"]),
            ("--grid1", ["joint", "--seeds", "exp:1", "--n", "4", "--k", "3",
                         "--grid0", "0:1:5", "--grid1", "0:inf:5"])):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
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


def test_quad_tol_env_validation(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("FSRV_QUAD_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "pdf", "--seeds", "exp:1", "--n", "4",
                           "--grid", "0:10:10")
    assert code == 2
    assert "FSRV_QUAD_TOL" in err
    # a nan tolerance used to hang the numeric route and inf to exit 3
    for raw in ("nan", "inf", "-inf"):
        monkeypatch.setenv("FSRV_QUAD_TOL", raw)
        code, _, err = run_cli(capsys, "pdf", "--seeds", "normal01", "--n", "4",
                               "--grid", "0:1:3", "--method", "numeric")
        assert code == 2
        assert "FSRV_QUAD_TOL" in err
    # a tolerance finer than doubles resolve runs out of evaluation budget
    monkeypatch.setenv("FSRV_QUAD_TOL", "1e-300")
    code, out, err = run_cli(capsys, "pdf", "--seeds", "normal01", "--n", "4",
                             "--grid", "0:1:5", "--method", "numeric")
    assert code == 3
    assert out == "" and "integrand evaluations" in err
    # joint and predict read the same variable
    joint = ("joint", "--seeds", "exp:1", "--n", "4", "--k", "3",
             "--grid0", "0:10:3", "--grid1", "0:30:3")
    predict = ("predict", "--seeds", "exp:1", "--n", "4", "--k", "3", "--grid", "0.5:5:3")
    for argv in (joint, predict):
        for raw in ("nan", "abc"):
            monkeypatch.setenv("FSRV_QUAD_TOL", raw)
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert "FSRV_QUAD_TOL" in err
        monkeypatch.setenv("FSRV_QUAD_TOL", "1e-300")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == "" and "integrand evaluations" in err
    # a tolerance whose per-piece or inner share underflows to 0 cannot be
    # met either; it used to be refused as an invalid setting
    table = tmp_path / "tri.csv"
    xs = np.linspace(0.0, 2.0, 17)
    table.write_text("\n".join(f"{x},{1.0 - abs(1.0 - x)}" for x in xs) + "\n")
    monkeypatch.setenv("FSRV_QUAD_TOL", "1e-323")
    for argv in (joint, ("pdf", "--seeds", f"table:{table}", "--n", "4", "--grid", "0:5:5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == "" and "underflows to 0" in err
    monkeypatch.setenv("FSRV_QUAD_TOL", "1e-8")
    code, out, _ = run_cli(capsys, "pdf", "--seeds", "exp:1", "--n", "4",
                           "--grid", "0:10:10")
    assert code == 0


def test_quad_tol_is_validated_but_not_consumed_on_table_seeds(capsys, monkeypatch, tmp_path):
    # table-seed densities and certificates are exact per piece, so a
    # tolerance finer than doubles resolve changes nothing there
    table = tmp_path / "tri.csv"
    xs = np.linspace(0.0, 2.0, 17)
    table.write_text("\n".join(f"{x},{1.0 - abs(1.0 - x)}" for x in xs) + "\n")
    argv = ("pdf", "--seeds", f"table:{table}", "--n", "5", "--grid", "0:10:21")
    code, unset, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("FSRV_QUAD_TOL", "1e-300")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == unset


def test_moments_overflow_exits_2_naming_n(capsys):
    # exp:1e-150 has a finite variance 1e300, but member 90's overflows
    code, out, err = run_cli(capsys, "moments", "--seeds", "exp:1e-150", "--n", "90",
                             "--output", "json")
    assert code == 2 and out == ""
    assert "--n" in err and "overflow" in err
    code, out, _ = run_cli(capsys, "moments", "--seeds", "exp:1e-150", "--n", "20",
                           "--output", "json")
    assert code == 0 and math.isfinite(json.loads(out)["variance"])


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


def test_limit_on_a_table_too_narrow_for_its_offset_fails_cleanly(capsys, tmp_path):
    # its variance cancelled to a negative number, and limit crashed in
    # math.sqrt; the knots near 3e4 now lose too much for the certificate
    table = tmp_path / "narrow.csv"
    xs = np.linspace(1e4, 1e4 + 1e-7, 16)
    table.write_text("\n".join(f"{float(x)!r},1.0" for x in xs) + "\n")
    code, out, err = run_cli(capsys, "limit", "--seeds", f"table:{table}", "--grid=-2:2:5")
    assert code in (2, 3) and out == ""
    assert err.startswith("error: ")


def _refuse_density(monkeypatch):
    bogus = DensityCurve(xs=np.array([0.0, 1.0]), ys=np.array([0.5, 0.5]),
                         support=(0.0, 1.0), norm_defect=5e-4)
    monkeypatch.setattr(DensityCurve, "from_function", lambda *args, **kwargs: bogus)


_EXIT_CASES = {
    # case: (exit code, argv, setup, start of the error line)
    "argparse": (2, ["pdf", "--seeds", "exp:1", "--n", "4", "--grid", "5:1:10"], None,
                 "fsrv pdf: error: argument --grid: "),
    "domain": (2, ["joint", "--seeds", "exp:1", "--n", "1", "--k", "1", "--grid0", "0:1:3",
                   "--grid1", "0:1:3"], None, "error: --n/--k: member index must be >= 2"),
    "unwritable_out": (2, ["fib", "--n", "5", "--out", "{missing}"], None,
                       "error: [Errno 2] No such file or directory: "),
    "quad_tol": (3, ["pdf", "--seeds", "normal01", "--n", "4", "--grid", "0:1:5",
                     "--method", "numeric"],
                 lambda mp: mp.setenv("FSRV_QUAD_TOL", "1e-300"),
                 "error: quadrature did not converge: "),
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
    result = subprocess.run([sys.executable, "-m", "fsrv", "fib", "--n", "12"],
                            capture_output=True, text=True)
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
_ANALYTIC_DIGESTS = [
    ("pdf_exp_closed", ["pdf", "--seeds", "exp:1", "--n", "5", "--grid", "0:20:9",
                        "--method", "closed"],
     "7b5362786152d4e288c22a3141c6453076773fb72b2aa3bc3a309886674dde13"),
    ("pdf_exp_numeric", ["pdf", "--seeds", "exp:1", "--n", "5", "--grid", "0:20:9",
                         "--method", "numeric", "--output", "json"],
     "bcb00850f928e2ceb06fa471682329e4cebeace1a6d9c23f30821c28e4794d75"),
    ("pdf_normal_numeric", ["pdf", "--seeds", "normal01", "--n", "4", "--grid=-6:6:7",
                            "--method", "numeric"],
     "63557f728c988c591e6c632d7077c2df47b6aa7701c5c6a0a0724dd6b6b0a6ec"),
    ("pdf_table", ["pdf", "--seeds", "TABLE", "--n", "3", "--grid", "0:7:8", "--output", "json"],
     "af87e9abb2a5f79058b7049b77982bff978b128212853c54f404b1551b3adf5e"),
    ("limit_exp", ["limit", "--seeds", "exp:1", "--grid=-2:4:9"],
     "3bdb33dc1d21bfeb71670c6f74417701a53862ee9c774a76836e8b40fbc8a58f"),
    ("limit_unif", ["limit", "--seeds", "unif01", "--grid=-2:2:9", "--output", "json"],
     "9d6fea8e2054059e6ce07c442b8e7dab47e2142add3069b35136502ae40f850a"),
    ("limit_normal", ["limit", "--seeds", "normal01", "--grid=-3:3:7"],
     "019b0ce2cffaa8e48aa3b8a2a677f2d40dc8e243e3595038fed8753f7b7409ba"),
    ("limit_table", ["limit", "--seeds", "TABLE", "--grid=-3:3:7", "--output", "json"],
     "13b94ac480205307f10186bcaf966f4adc9583bbba3364be9d58e31038b525b4"),
    ("sums_exp", ["sums", "--seeds", "exp:1", "--n", "4", "--grid", "0:30:7", "--output", "json"],
     "4ff31c36454eec75c599aabeef32fb75fb77fcbdfc6171af30f4b4f876952faf"),
    ("sums_normal", ["sums", "--seeds", "normal01", "--n", "4", "--grid=-10:10:7",
                     "--output", "json"],
     "ad9ec8ba3306302d7ac33feba5fb2dec29675853ff58d17cf8486403a2f6af52"),
    ("sums_table", ["sums", "--seeds", "TABLE", "--n", "3", "--grid", "0:16:7", "--output", "json"],
     "fa03deb946ebd0dc3cb46cad17400efe5d234e5032a959918fa9226611b25eeb"),
    ("joint_unif", ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                    "--grid0", "0:5:4", "--grid1", "0:21:4"],
     "e8f23a78718d7e1397afcbe02ff5a3849e0834711917f71263b45445a868edd0"),
    ("predict_exp", ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                     "--grid", "0.5:10:5", "--output", "json"],
     "c80784d4985bf0e1cf0c2325e8a86a1c761ef689137ca50e26d9921c2796df03"),
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
     "36926831f19a894e71685eb3f49fa4c038c943fb445a0f4d6e649a04631be3ca"),
    ("predict_table_csv", ["predict", "--seeds", "TABLE", "--n", "4", "--k", "3",
                           "--grid", "0.5:5:5"],
     "3c22302a450eff4495fb1d238e3839b6645c44304605ab794a2b008888ce2085"),
    ("joint_unif_json", ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                         "--grid0", "0:5:4", "--grid1", "0:21:4", "--output", "json"],
     "da402b3cda5e062ea683fda9a2374165ecf660a6d18f77a40f85ee1286bfa5cf"),
    ("simulate_csv", ["simulate", "--seeds", "normal01", "--paths", "50", "--horizon", "10",
                      "--rng-seed", "7"],
     "144868670a792994e52360f8f54df9217ae4c5e25865b69e22fdb1a5f1a09c19"),
    ("fib_csv", ["fib", "--n", "150"],
     "e201f47445320bff4139b815f1565ef63d0d444df73d44643bcffc8143c6e240"),
    ("fib_json", ["fib", "--n", "150", "--output", "json"],
     "2e297b3300310faf3ec3d5472f7aba4c11d85d6ec68d1774e594b1427ce43171"),
]


@pytest.mark.parametrize("argv,stdout_sha", [case[1:] for case in _ANALYTIC_DIGESTS],
                         ids=[case[0] for case in _ANALYTIC_DIGESTS])
def test_analytic_outputs_are_pinned(capsys, tmp_path, argv, stdout_sha):
    table = tmp_path / "tri.csv"
    xs = np.linspace(0.0, 2.0, 17)
    table.write_text("\n".join(f"{x},{1.0 - abs(1.0 - x)}" for x in xs) + "\n")
    argv = [f"table:{table}" if arg == "TABLE" else arg for arg in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


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
