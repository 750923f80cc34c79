import math

import numpy as np
import pytest

from fsrv.cli import main
from fsrv.errors import DomainError, OutsideSupportError
from fsrv.fib_core import fib
from fsrv.joint_predict import (
    joint_law,
    joint_normalization_check,
    joint_pdf,
    joint_support,
    predict,
    predict_exponential_4_to_7,
    prediction_curve,
    seed_coordinates,
)
from fsrv.marginal import pdf_exponential_closed, pdf_uniform_closed
from fsrv.numerics import QuadratureConfig, integrate


@pytest.fixture(scope="module")
def law43():
    return joint_law(4, 3)


def test_joint_law_coefficients(law43):
    assert law43.coeff_matrix == (2, 3, 8, 13)
    assert law43.jacobian == 2  # (-1)^4 * a_3
    assert law43.jacobian_abs == 2


def test_jacobian_identity_sweep():
    for n in range(2, 31):
        for k in range(1, 11):
            law = joint_law(n, k)
            expected = (-1) ** n * fib(k)
            assert law.jacobian == expected
            c = law.coeff_matrix
            assert c[0] * c[3] - c[1] * c[2] == expected


def test_joint_law_validation():
    with pytest.raises(DomainError):
        joint_law(1, 3)
    with pytest.raises(DomainError):
        joint_law(4, 0)


def test_seed_coordinates_roundtrip(law43):
    v0, v1 = 0.7, 0.35
    y0 = 2 * v0 + 3 * v1
    y1 = 8 * v0 + 13 * v1
    r0, r1 = seed_coordinates(law43, y0, y1)
    assert r0 == pytest.approx(v0, abs=1e-12)
    assert r1 == pytest.approx(v1, abs=1e-12)


def test_joint_pdf_exponential_point(law43, exp_model):
    got = joint_pdf(law43, exp_model, 1.0, 4.2)
    assert got == pytest.approx(0.5 * math.exp(-0.4), abs=1e-12)
    assert got == pytest.approx(0.335160, abs=1e-6)


def test_joint_pdf_outside_wedge(law43, exp_model):
    assert joint_pdf(law43, exp_model, 1.0, 3.9) == 0.0  # below y = 4x
    assert joint_pdf(law43, exp_model, 1.0, 4.4) == 0.0  # above y = 13x/3
    assert joint_pdf(law43, exp_model, -1.0, -4.0) == 0.0


def test_joint_pdf_uniform_interior(law43, unif_model):
    # interior of the parallelogram 0 <= (13x-3y)/2 <= 1, 0 <= (2y-8x)/2 <= 1
    assert joint_pdf(law43, unif_model, 0.5, 2.05) == pytest.approx(0.5)
    assert joint_pdf(law43, unif_model, 0.5, 3.5) == 0.0


def test_joint_support_exponential(law43, exp_model):
    assert joint_support(law43, exp_model, 3.0) == (12.0, 13.0)
    assert joint_support(law43, exp_model, -1.0) is None


def test_joint_support_uniform(law43, unif_model):
    lo, hi = joint_support(law43, unif_model, 0.5)
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(13.0 / 6.0)
    assert joint_support(law43, unif_model, 6.0) is None


def test_joint_support_normal_is_unbounded(law43, norm_model):
    lo, hi = joint_support(law43, norm_model, 0.0)
    assert math.isinf(lo) and math.isinf(hi)


def test_joint_normalization_small_cases(exp_model, unif_model):
    assert abs(joint_normalization_check(joint_law(2, 1), exp_model) - 1.0) <= 1e-6
    assert abs(joint_normalization_check(joint_law(4, 3), unif_model) - 1.0) <= 1e-6


def test_marginalizing_joint_recovers_member_density(law43, exp_model):
    from fsrv.joint_predict import _effective_slice

    for x in (0.5, 2.0, 6.0, 15.0):
        bounds = _effective_slice(law43, exp_model, x)
        got = integrate(lambda y: joint_pdf(law43, exp_model, x, y), bounds[0], bounds[1],
                        QuadratureConfig(abs_tol=1e-10))
        expected = math.exp(-x / 3.0) - math.exp(-x / 2.0)
        assert abs(got - expected) <= 1e-6
        assert abs(expected - pdf_exponential_closed(4, x)) < 1e-15


def test_marginalizing_uniform_joint(unif_model):
    from fsrv.joint_predict import _effective_slice

    law = joint_law(5, 1)
    for x in (0.5, 2.5, 6.0):
        bounds = _effective_slice(law, unif_model, x)
        got = 0.0 if bounds is None else integrate(
            lambda y: joint_pdf(law, unif_model, x, y), bounds[0], bounds[1])
        assert abs(got - pdf_uniform_closed(5, x)) <= 1e-6


@pytest.mark.parametrize("n,k", [(4, 3), (3, 2), (5, 1)])
@pytest.mark.parametrize("family", ["exponential", "uniform"])
def test_marginalization_over_all_benchmark_pairs(n, k, family, exp_model, unif_model):
    from fsrv.joint_predict import _effective_slice

    model = exp_model if family == "exponential" else unif_model
    closed = (lambda x: pdf_exponential_closed(n, x)) if family == "exponential" \
        else (lambda x: pdf_uniform_closed(n, x))
    law = joint_law(n, k)
    hi = 4.0 * float(fib(n + 1)) if family == "exponential" else float(fib(n - 1) + fib(n))
    for x in np.linspace(0.05, hi, 12):
        bounds = _effective_slice(law, model, float(x))
        got = 0.0 if bounds is None else integrate(
            lambda y: joint_pdf(law, model, float(x), y), bounds[0], bounds[1],
            QuadratureConfig(abs_tol=1e-9))
        assert abs(got - closed(float(x))) <= 1e-6


def test_predict_matches_closed_form_at_benchmark_points(law43, exp_model):
    got = predict(law43, exp_model, 6.0)
    # independent evaluation: 22 + 2/(1 - e^-1)
    oracle = 22.0 + 2.0 / (1.0 - math.exp(-1.0))
    assert abs(got - oracle) <= 1e-6
    assert abs(predict_exponential_4_to_7(6.0) - oracle) < 1e-12
    assert oracle == pytest.approx(25.163953, abs=1e-6)


def test_predict_stays_in_conditional_support(law43, exp_model):
    for x in (0.25, 1.0, 4.0, 12.0):
        g = predict(law43, exp_model, x)
        assert 4.0 * x <= g <= 13.0 * x / 3.0


def test_predict_outside_effective_support(law43, exp_model):
    with pytest.raises(OutsideSupportError):
        predict(law43, exp_model, -1.0)
    with pytest.raises(OutsideSupportError):
        predict(law43, exp_model, 400.0)


def test_closed_predictor_limit_and_asymptote():
    assert predict_exponential_4_to_7(0.0) == 0.0
    # small-x expansion g(x) = 25x/6 + O(x^2)
    for x in (1e-9, 1e-6, 1e-4):
        assert abs(predict_exponential_4_to_7(x) - 25.0 * x / 6.0) < 1e-7
    # large-x asymptote 13x/3 - 2
    assert abs(predict_exponential_4_to_7(60.0) - 258.0) <= 1e-3
    with pytest.raises(DomainError):
        predict_exponential_4_to_7(-0.5)


def test_predict_agrees_with_closed_on_grid(law43, exp_model):
    for x in np.linspace(0.1, 20.0, 25):
        got = predict(law43, exp_model, float(x))
        assert abs(got - predict_exponential_4_to_7(float(x))) <= 1e-6


def test_prediction_curve_methods(law43, exp_model, unif_model):
    xs = np.linspace(1.0, 4.0, 7)
    closed = prediction_curve(law43, exp_model, xs, method="closed_form")
    quad = prediction_curve(law43, exp_model, xs, method="quadrature")
    assert np.max(np.abs(closed.g_values - quad.g_values)) <= 1e-6
    assert closed.method == "closed_form"
    with pytest.raises(DomainError):
        prediction_curve(law43, unif_model, xs, method="closed_form")
    with pytest.raises(DomainError):
        prediction_curve(joint_law(3, 2), exp_model, xs, method="closed_form")
    with pytest.raises(DomainError):
        prediction_curve(law43, exp_model, xs, method="magic")


def test_predictor_unbiasedness_small_grid(law43, exp_model):
    # tower property: E[g(member 4)] should equal E[member 7] = a_8 = 21
    integrand = lambda x: predict(law43, exp_model, x) * pdf_exponential_closed(4, x)
    total = integrate(integrand, 1e-9, 80.0, QuadratureConfig(abs_tol=1e-6))
    assert abs(total - 21.0) / 21.0 <= 1e-4


# --- table seeds: exact per-piece slice integrals -----------------------------

def _write_table(path, xs, ys):
    path.write_text("\n".join(f"{x},{y}" for x, y in zip(xs, ys)) + "\n")
    return f"table:{path}"


def _triangle_table(tmp_path):
    xs = np.linspace(0.0, 2.0, 17)
    return _write_table(tmp_path / "tri.csv", xs, 1.0 - np.abs(1.0 - xs))


def _joint_defect(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    trailer = captured.out.strip().splitlines()[-1]
    assert trailer.startswith("# norm_defect=")
    return float(trailer.split("=")[1])


def test_triangle_joint_certificate_is_exact(capsys, tmp_path):
    # refused with norm_defect 8.9e-6 before the slices were split at the kinks
    spec = _triangle_table(tmp_path)
    defect = _joint_defect(capsys, ("joint", "--seeds", spec, "--n", "4", "--k", "3",
                                    "--grid0", "0:10:20", "--grid1", "0:26:20"))
    assert defect <= 1e-12


def test_fine_table_joint_certificate_is_exact_and_quick(capsys, tmp_path):
    # a 201-node table: the unsplit nested quadrature ran for minutes
    xs = np.linspace(0.0, 1.0, 201)
    spec = _write_table(tmp_path / "sin2.csv", xs, np.sin(np.pi * xs) ** 2)
    defect = _joint_defect(capsys, ("joint", "--seeds", spec, "--n", "4", "--k", "3",
                                    "--grid0", "0:5:3", "--grid1", "0:13:3"))
    assert defect <= 1e-12


def test_triangle_predictor_matches_scipy(capsys, tmp_path, triangle_seed):
    quad = pytest.importorskip("scipy.integrate").quad
    spec = _triangle_table(tmp_path)
    code = main(["predict", "--seeds", spec, "--n", "4", "--k", "3", "--grid", "0.5:9:60"])
    out = capsys.readouterr().out
    assert code == 0
    rows = np.array([[float(cell) for cell in line.split(",")]
                     for line in out.strip().splitlines()[1:]])
    nodes = triangle_seed.grid
    for x, got in rows:
        # member 4 = 2*V0 + 3*V1 = x; integrate over V1 = t, V0 = (x - 3t)/2,
        # split where either seed coordinate crosses a node
        lo, hi = max(0.0, (x - 4.0) / 3.0), min(2.0, x / 3.0)
        cuts = np.unique(np.clip(np.concatenate((nodes, (x - 2.0 * nodes) / 3.0)), lo, hi))

        def weight(t):
            return triangle_seed.pdf((x - 3.0 * t) / 2.0) * triangle_seed.pdf(t)

        def moment(t):  # member 7 = 8*V0 + 13*V1
            return (8.0 * (x - 3.0 * t) / 2.0 + 13.0 * t) * weight(t)

        pieces = list(zip(cuts[:-1], cuts[1:]))
        mass = sum(quad(weight, a, b, epsabs=1e-14, epsrel=1e-12)[0] for a, b in pieces)
        first = sum(quad(moment, a, b, epsabs=1e-14, epsrel=1e-12)[0] for a, b in pieces)
        assert abs(got - first / mass) <= 1e-9
