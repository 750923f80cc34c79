import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fsrv.cli import main
from fsrv.errors import DomainError, NonConvergenceError, OutsideSupportError
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
from fsrv.marginal import FsrvModel, pdf_exponential_closed, pdf_uniform_closed
from fsrv.numerics import integrate
from fsrv.seeds import Exponential, UniformUnit


@pytest.fixture(scope="module")
def law43():
    return joint_law(4, 3)


def test_seed_coordinates_scale_past_overflow_exactly():
    # the last point's products overflow, so the whole batch runs scaled by
    # powers of two; every other point keeps the plain map's bits
    law = joint_law(30, 5)
    c_nm1, c_n, c_nkm1, c_nk = law.coeff_matrix
    jac = float(law.jacobian)
    rng = np.random.default_rng(3)
    y0, y1 = rng.choice([-1.0, 1.0], (2, 300)) * 10.0 ** rng.uniform(-300, 290, (2, 300))
    v0, v1 = seed_coordinates(law, np.append(y0, 5e307), np.append(y1, 1e308))
    np.testing.assert_array_equal(v0[:-1], (c_nk * y0 - c_n * y1) / jac)
    np.testing.assert_array_equal(v1[:-1], (c_nm1 * y1 - c_nkm1 * y0) / jac)
    exact0 = (c_nk * Fraction(5e307) - c_n * Fraction(1e308)) / law.jacobian
    exact1 = (c_nm1 * Fraction(1e308) - c_nkm1 * Fraction(5e307)) / law.jacobian
    # both exact coordinates lie past the double range, so each is an infinity of its sign
    assert [v0[-1], v1[-1]] == [math.inf if exact > 0 else -math.inf for exact in (exact0, exact1)]
    assert seed_coordinates(joint_law(4, 3), 5e307, 1e308) == (1.75e308, -1e308)


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
    for x in (0.5, 2.0, 6.0, 15.0):
        bounds = joint_support(law43, exp_model, x)
        got = integrate(lambda y: joint_pdf(law43, exp_model, x, y), bounds[0], bounds[1])
        expected = math.exp(-x / 3.0) - math.exp(-x / 2.0)
        assert abs(got - expected) <= 1e-6
        assert abs(expected - pdf_exponential_closed(4, x)) < 1e-15


def test_marginalizing_uniform_joint(unif_model):
    law = joint_law(5, 1)
    for x in (0.5, 2.5, 6.0):
        bounds = joint_support(law, unif_model, x)
        got = 0.0 if bounds is None else integrate(
            lambda y: joint_pdf(law, unif_model, x, y), bounds[0], bounds[1])
        assert abs(got - pdf_uniform_closed(5, x)) <= 1e-6


@pytest.mark.parametrize("n,k", [(4, 3), (3, 2), (5, 1)])
@pytest.mark.parametrize("family", ["exponential", "uniform"])
def test_marginalization_over_all_benchmark_pairs(n, k, family, exp_model, unif_model):
    model = exp_model if family == "exponential" else unif_model
    closed = (lambda x: pdf_exponential_closed(n, x)) if family == "exponential" \
        else (lambda x: pdf_uniform_closed(n, x))
    law = joint_law(n, k)
    hi = 4.0 * float(fib(n + 1)) if family == "exponential" else float(fib(n - 1) + fib(n))
    for x in np.linspace(0.05, hi, 12):
        bounds = joint_support(law, model, float(x))
        got = 0.0 if bounds is None else integrate(
            lambda y: joint_pdf(law, model, float(x), y), bounds[0], bounds[1])
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


def test_predict_keeps_the_tail_past_the_effective_support(law43, exp_model):
    # member 4 = 2*V0 + 3*V1: past x = 2*28.32 a slice reaches V0 beyond the
    # effective support end 28.32, and slices cut there read 2.3e-6 to 4.3e-6
    # relative off; the seeds' true supports bound these slices
    xs = np.array([60.0, 70.0, 80.0])
    closed = predict_exponential_4_to_7(xs)
    assert np.all(np.abs(predict(law43, exp_model, xs) - closed) <= 1e-14 * closed)


@pytest.mark.parametrize("family", ["exponential", "normal", "table"])
def test_batched_predict_equals_pointwise_predict(family, exp_model, norm_model,
                                                  triangle_seed, law43):
    # one batch of densities and slice integrals; each value as if alone
    model, xs = {
        "exponential": (exp_model, np.linspace(0.1, 20.0, 23)),
        "normal": (norm_model, np.linspace(-4.0, 4.0, 9)),
        "table": (FsrvModel(triangle_seed, triangle_seed), np.linspace(0.3, 9.7, 17)),
    }[family]
    batch = predict(law43, model, xs)
    assert isinstance(batch, np.ndarray) and batch.shape == xs.shape
    pointwise = [predict(law43, model, float(x)) for x in xs]
    assert all(isinstance(g, float) for g in pointwise)
    assert batch.tobytes() == np.array(pointwise).tobytes()
    assert predict(law43, model, xs.reshape(-1, 1)).shape == (xs.size, 1)


def test_batched_predict_names_the_first_offending_point(law43, exp_model, norm_model,
                                                         triangle_seed):
    # messages as the per-point loop raised them, for the first x in grid order
    floor = "is below the floor 1e-12; the conditional mean is not identifiable there"
    for model, xs, bad in ((exp_model, [1.0, 2.0, 400.0, -1.0], "400.0"),
                           (exp_model, np.linspace(-1.0, 5.0, 7), "-1.0"),
                           (FsrvModel(triangle_seed, triangle_seed),
                            np.linspace(0.5, 11.0, 8), "11.0"),
                           (norm_model, np.linspace(-60.0, 0.0, 4), "-60.0")):
        with pytest.raises(OutsideSupportError) as excinfo:
            prediction_curve(law43, model, xs)
        assert str(excinfo.value) == f"marginal density at x={bad} {floor}"


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", ["uniform", "table", "exponential", "normal"])
def test_predict_refuses_a_non_finite_x(law43, family, x, unif_model, triangle_seed,
                                        exp_model, norm_model):
    # an infinite x cuts its slice at inf, a NaN x at NaN: the slice mass is
    # 0 or NaN, refused by the floor with no RuntimeWarning on the way
    model = {"uniform": unif_model, "table": FsrvModel(triangle_seed, triangle_seed),
             "exponential": exp_model, "normal": norm_model}[family]
    for xs in (x, np.array([1.0, x])):
        with pytest.raises(OutsideSupportError, match=f"^marginal density at x={x} "):
            predict(law43, model, xs)


def _fib_coeffs(n: int, k: int) -> tuple[int, int, int, int]:
    return fib(n - 1), fib(n), fib(n + k - 1), fib(n + k)


@pytest.mark.parametrize("n", range(12, 19))
def test_normal_predictor_reaches_large_n(n, norm_model):
    # the slices over y1 ran out of budget from n = 12 at the former 1e-12
    c0, c1, d0, d1 = _fib_coeffs(n, 2)
    xs = np.linspace(-2.0, 2.0, 9) * math.hypot(c0, c1)
    linear = xs * (c0 * d0 + c1 * d1) / (c0 * c0 + c1 * c1)
    got = predict(joint_law(n, 2), norm_model, xs)
    assert np.max(np.abs(got - linear)) <= 1e-8 * np.max(np.abs(linear))


@pytest.mark.parametrize("n", range(14, 21))
def test_exponential_predictor_reaches_large_n(n, exp_model):
    # the slices over y1 ran out of budget from n = 14 at the former 1e-12
    quad = pytest.importorskip("scipy.integrate").quad
    c0, c1, d0, d1 = _fib_coeffs(n, 2)
    xs = np.linspace(c1 / 2.0, c1, 5)
    got = predict(joint_law(n, 2), exp_model, xs)
    for x, value in zip(xs, got):
        # member n = c0*V0 + c1*V1 = x; integrate over V1 = u in [0, x/c1],
        # where exp(-V0 - u) is exp(-x/c0) * exp(u*(c1/c0 - 1))
        weight = lambda u: math.exp(u * (c1 / c0 - 1.0))
        moment = lambda u: (d0 * (x - c1 * u) / c0 + d1 * u) * weight(u)
        mass = quad(weight, 0.0, x / c1, epsabs=0.0, epsrel=1e-13)[0]
        first = quad(moment, 0.0, x / c1, epsabs=0.0, epsrel=1e-13)[0]
        assert abs(value - first / mass) <= 1e-8 * (first / mass)


@pytest.mark.parametrize("n", [20, 30, 34, 38])
def test_uniform_predictor_keeps_its_digits_at_large_n(n, unif_model):
    # with the marginal from another discretization than the slices, the
    # ratio read 7.0e-9 relative off at n = 20 and 0.165 at n = 38
    c0, c1, d0, d1 = _fib_coeffs(n, 2)
    xs = np.linspace(c1 / 2.0, c1, 5)
    got = predict(joint_law(n, 2), unif_model, xs)
    for x, value in zip(xs, got):
        # the joint density is flat on the slice, so V1 given member n = x is
        # uniform between its ends, and the predictor is linear in its midpoint
        x = Fraction(float(x))
        u = (max(Fraction(0), (x - c0) / c1) + min(Fraction(1), x / c1)) / 2
        exact = d0 * (x - c1 * u) / c0 + d1 * u
        assert abs(value - float(exact)) <= 1e-14 * float(exact)


def test_closed_predictor_limit_and_asymptote():
    assert predict_exponential_4_to_7(0.0) == 0.0
    # small-x expansion g(x) = 25x/6 + O(x^2)
    for x in (1e-9, 1e-6, 1e-4):
        assert abs(predict_exponential_4_to_7(x) - 25.0 * x / 6.0) < 1e-7
    # large-x asymptote 13x/3 - 2
    assert abs(predict_exponential_4_to_7(60.0) - 258.0) <= 1e-3
    with pytest.raises(DomainError):
        predict_exponential_4_to_7(-0.5)


def _predictor_oracle(x: float) -> Decimal:
    """4x - 2 - x/(3*(exp(-x/6) - 1)) at 700 digits, where exp(-x/6) - 1
    keeps its digits down to the smallest double."""
    with localcontext() as context:
        context.prec = 700
        d = Decimal(x)
        return 4 * d - 2 - d / (3 * ((-d / 6).exp() - 1))


def test_closed_predictor_keeps_its_digits_near_zero():
    # the closed form cancels below 5e-4: it read 0.0 from 1e-17 down
    xs = np.geomspace(1e-300, 5e-4, 301)[:-1]
    values = predict_exponential_4_to_7(xs)
    for x, value in zip(xs, values):
        exact = _predictor_oracle(float(x))
        assert abs((Decimal(float(value)) - exact) / exact) <= Decimal("1e-15"), x
    for x in (5e-324, 1e-320, 3e-310, 2.2e-308):  # subnormal: one step of 5e-324 at most
        assert abs(predict_exponential_4_to_7(x) - float(_predictor_oracle(x))) <= 5e-324, x
    for zero in (0.0, -0.0, np.array([-0.0, 0.0])):
        assert np.all(np.copysign(1.0, predict_exponential_4_to_7(zero)) == 1.0)


def test_predict_agrees_with_closed_on_grid(law43, exp_model):
    for x in np.linspace(0.1, 20.0, 25):
        got = predict(law43, exp_model, float(x))
        assert abs(got - predict_exponential_4_to_7(float(x))) <= 1e-6


def test_prediction_curve_methods(law43, exp_model, unif_model):
    xs = np.linspace(1.0, 4.0, 7)
    closed = prediction_curve(law43, exp_model, xs, method="closed_form")
    quad = prediction_curve(law43, exp_model, xs, method="quadrature")
    assert closed.shape == quad.shape == xs.shape
    assert np.max(np.abs(closed - quad)) <= 1e-6
    with pytest.raises(DomainError):
        prediction_curve(law43, unif_model, xs, method="closed_form")
    with pytest.raises(DomainError):
        prediction_curve(joint_law(3, 2), exp_model, xs, method="closed_form")
    with pytest.raises(DomainError):
        prediction_curve(law43, exp_model, xs, method="magic")


def test_predictor_unbiasedness_small_grid(law43, exp_model):
    # tower property: E[g(member 4)] should equal E[member 7] = a_8 = 21
    # integrands take arrays of nodes; prediction_curve predicts them in one batch
    integrand = lambda xs: prediction_curve(law43, exp_model, xs) * pdf_exponential_closed(4, xs)
    total = integrate(integrand, 1e-9, 80.0)
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


@pytest.fixture(scope="module")
def mixed_model(triangle_seed):
    """The triangle table seed with a smooth unit exponential seed."""
    return FsrvModel(triangle_seed, Exponential(1.0))


def test_mixed_pair_joint_certificate_meets_the_default_tolerance(law43, mixed_model):
    # the slices were cut only at the support ends, not at the table's kinks:
    # the certificate read 2.0e-8
    assert abs(joint_normalization_check(law43, mixed_model) - 1.0) <= 1e-9


def test_mixed_pair_predictor_matches_scipy(law43, mixed_model, triangle_seed):
    quad = pytest.importorskip("scipy.integrate").quad
    xs = np.linspace(0.5, 9.0, 12)
    got = predict(law43, mixed_model, xs)
    for x, value in zip(xs, got):
        # member 4 = 2*V0 + 3*V1 = x; integrate over V1 = t, V0 = (x - 3t)/2,
        # with the images of the table's kinks as break points
        lo, hi = max(0.0, (x - 4.0) / 3.0), x / 3.0
        kinks = [c for c in (x - 2.0 * triangle_seed.grid) / 3.0 if lo < c < hi]

        def weight(t):
            return triangle_seed.pdf((x - 3.0 * t) / 2.0) * math.exp(-t)

        def moment(t):  # member 7 = 8*V0 + 13*V1
            return (4.0 * (x - 3.0 * t) + 13.0 * t) * weight(t)

        mass = quad(weight, lo, hi, points=kinks, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        first = quad(moment, lo, hi, points=kinks, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert abs(value - first / mass) <= 1e-12 * abs(first / mass)


def test_uniform_joint_certificate_is_exact(monkeypatch, unif_model):
    points = []
    pdf = UniformUnit.pdf
    monkeypatch.setattr(UniformUnit, "pdf", lambda self, x: points.append(np.size(x)) or pdf(self, x))
    assert abs(joint_normalization_check(joint_law(6, 4), unif_model) - 1.0) <= 1e-14
    # exact mode takes two points per piece at both levels; adaptive took 73,800
    assert sum(points) <= 1000


def test_uniform_predictor_matches_scipy(law43, unif_model):
    quad = pytest.importorskip("scipy.integrate").quad
    unif = unif_model.seed0
    xs = np.linspace(0.25, 4.75, 10)
    got = predict(law43, unif_model, xs)
    for x, value in zip(xs, got):
        # member 4 = 2*V0 + 3*V1 = x; integrate over V1 = t in [0, 1], with
        # the images t = x/3 and (x - 2)/3 of V0's ends as break points
        kinks = [c for c in (x / 3.0, (x - 2.0) / 3.0) if 0.0 < c < 1.0]

        def weight(t):
            return unif.pdf((x - 3.0 * t) / 2.0) * unif.pdf(t)

        def moment(t):  # member 7 = 8*V0 + 13*V1
            return (4.0 * (x - 3.0 * t) + 13.0 * t) * weight(t)

        mass = quad(weight, 0.0, 1.0, points=kinks, epsabs=0.0, epsrel=1e-13)[0]
        first = quad(moment, 0.0, 1.0, points=kinks, epsabs=0.0, epsrel=1e-13)[0]
        assert abs(value - first / mass) <= 1e-12 * abs(first / mass)
