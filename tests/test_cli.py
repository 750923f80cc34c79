import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fsrv.cli import main
from fsrv.fib_core import PHI
from fsrv.joint_predict import predict_exponential_4_to_7
from fsrv.marginal import pdf_exponential_closed


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
    for flag, bad in (("--workers", "0"), ("--paths", "0"), ("--horizon", "1")):
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


def test_failed_normalization_certificate_blocks_emission(capsys):
    from fsrv.cli import _curve_output
    from fsrv.numerics import DensityCurve

    bogus = DensityCurve(xs=np.array([0.0, 1.0]), ys=np.array([0.5, 0.5]),
                         support=(0.0, 1.0), norm_defect=5e-4)
    code = _curve_output(bogus, "csv", None)
    err = capsys.readouterr().err
    assert code == 3
    assert "norm_defect" in err


def test_console_entry_point_runs():
    result = subprocess.run([sys.executable, "-m", "fsrv", "fib", "--n", "12"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "144"


# sha256 of analytic CLI stdout, recorded before the linear-form support and
# moments moved into one pair of helpers; "TABLE" stands for the 17-node
# triangle table seed on [0, 2]. The three table digests were re-recorded
# when table-seed densities moved to exact per-piece quadrature, which moved
# their values by rounding only.
_ANALYTIC_DIGESTS = [
    ("pdf_exp_closed", ["pdf", "--seeds", "exp:1", "--n", "5", "--grid", "0:20:9",
                        "--method", "closed"],
     "856d86dbc934be3f822984eac4e53ea67db18fbf0e383e8ab8269c02ae07837e"),
    ("pdf_exp_numeric", ["pdf", "--seeds", "exp:1", "--n", "5", "--grid", "0:20:9",
                         "--method", "numeric", "--output", "json"],
     "c267ec7a4506a34a0bd649b3596865c244b1f2784fd29057bf65e34c31f5ddb2"),
    ("pdf_normal_numeric", ["pdf", "--seeds", "normal01", "--n", "4", "--grid=-6:6:7",
                            "--method", "numeric"],
     "0c968731d7c30f7ee4ba1dfd83f137d27e910ec8909f5a5dcf188564b5ad7551"),
    ("pdf_table", ["pdf", "--seeds", "TABLE", "--n", "3", "--grid", "0:7:8", "--output", "json"],
     "af87e9abb2a5f79058b7049b77982bff978b128212853c54f404b1551b3adf5e"),
    ("limit_exp", ["limit", "--seeds", "exp:1", "--grid=-2:4:9"],
     "9c6d7cde6d11efabc54783ef3b4157ce84e27063e3ca1ee8d5d4dad02534bfcf"),
    ("limit_unif", ["limit", "--seeds", "unif01", "--grid=-2:2:9", "--output", "json"],
     "0d9ea5ac02eac20b8612097509a51739169bbe6666a6776d94edd8e9046b9852"),
    ("limit_normal", ["limit", "--seeds", "normal01", "--grid=-3:3:7"],
     "65136bb1d315aff8f42b2b7654a3ba4b6a780263008fb6267381282902df641a"),
    ("limit_table", ["limit", "--seeds", "TABLE", "--grid=-3:3:7", "--output", "json"],
     "13b94ac480205307f10186bcaf966f4adc9583bbba3364be9d58e31038b525b4"),
    ("sums_exp", ["sums", "--seeds", "exp:1", "--n", "4", "--grid", "0:30:7", "--output", "json"],
     "0a228edc2047d4f8b73f3a7f55aa5036e5f24f2157918e2b533b2ea66826b359"),
    ("sums_normal", ["sums", "--seeds", "normal01", "--n", "4", "--grid=-10:10:7",
                     "--output", "json"],
     "e9ed1923a9bf936c49c36fda3c239293ce5f4f594d7a89855badebb46d2b81eb"),
    ("sums_table", ["sums", "--seeds", "TABLE", "--n", "3", "--grid", "0:16:7", "--output", "json"],
     "fa03deb946ebd0dc3cb46cad17400efe5d234e5032a959918fa9226611b25eeb"),
    ("joint_unif", ["joint", "--seeds", "unif01", "--n", "4", "--k", "3",
                    "--grid0", "0:5:4", "--grid1", "0:21:4"],
     "11508bd1d3bc495a710a4720432b5b8c395027f31ea8cdd3c8787cf6bd6fdd2f"),
    ("predict_exp", ["predict", "--seeds", "exp:1", "--n", "4", "--k", "3",
                     "--grid", "0.5:10:5", "--output", "json"],
     "9c490e4e3c1970e5f1be7d49e6dab2d69554a16e2ff07bc093cab5a5500374bd"),
    ("moments_normal", ["moments", "--seeds", "normal01", "--n", "30", "--output", "json"],
     "a9258a0c8fc5628b73e468472954262847fd0946485d78cd794848c8bd094817"),
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
