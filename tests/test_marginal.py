import math

import numpy as np
import pytest

from fsrv.errors import DomainError
from fsrv.fib_core import PHI, fib
from fsrv.marginal import (
    FsrvModel,
    LinearForm,
    exponential_model,
    limit_form,
    member_form,
    member_law,
    mode_exponential,
    pdf_exponential_closed,
    pdf_normal_closed,
    pdf_numeric,
    pdf_uniform_closed,
    ratio_diagnostics,
    sum_form,
)
from fsrv.joint_predict import joint_law, predict_exponential_4_to_7, prediction_curve
from fsrv.limits import (
    limit_density_law,
    pdf_limit_exponential_closed,
    pdf_limit_numeric,
    pdf_limit_uniform_closed,
    pdf_sum,
    pdf_sum_exponential_closed,
    sum_density_law,
)
from fsrv.numerics import integrate
from fsrv.seeds import Exponential, StandardNormal, Tabulated, UniformUnit


def grid_sup_distance(model, n, closed, xs):
    return float(np.max(np.abs(pdf_numeric(model, n, xs) - closed(xs))))


def exp_grid(n, points=250):
    mean, var = member_form(exponential_model(), n).moments()
    return np.linspace(0.0, mean + 12.0 * math.sqrt(var), points)


def test_pdf_numeric_point_values(exp_model, unif_model):
    assert abs(pdf_numeric(exp_model, 2, 1.0) - math.exp(-1.0)) < 1e-9
    assert abs(pdf_numeric(unif_model, 5, 4.0) - 0.2) < 1e-9
    assert pdf_numeric(exp_model, 4, -3.0) == 0.0


def test_pdf_numeric_rejects_seed_indices(exp_model):
    with pytest.raises(DomainError):
        pdf_numeric(exp_model, 1, 0.5)
    with pytest.raises(DomainError):
        pdf_numeric(exp_model, 0, 0.5)


def test_exponential_closed_point_values():
    assert abs(pdf_exponential_closed(2, 1.0) - math.exp(-1.0)) < 1e-15
    x4, m4 = 6.0 * math.log(1.5), 0.5 * 1.5**-3
    assert abs(pdf_exponential_closed(4, x4) - m4) < 1e-15
    assert pdf_exponential_closed(7, -1.0) == 0.0
    with pytest.raises(DomainError):
        pdf_exponential_closed(1, 1.0)


def test_exponential_closed_rate_scaling():
    rate = 2.5
    model = FsrvModel(Exponential(rate), Exponential(rate))
    for x in (0.1, 0.7, 2.0, 5.0):
        assert abs(pdf_exponential_closed(5, x, rate) - pdf_numeric(model, 5, x)) < 1e-8


def test_uniform_closed_branches():
    assert pdf_uniform_closed(5, 4.0) == pytest.approx(0.2)
    assert pdf_uniform_closed(5, 1.5) == pytest.approx(0.1)  # 1.5 / (3*5)
    assert pdf_uniform_closed(2, 1.0) == pytest.approx(1.0)  # triangular peak
    assert pdf_uniform_closed(6, -0.5) == 0.0
    assert pdf_uniform_closed(6, 13.5) == 0.0


def test_normal_closed_point_values():
    assert abs(pdf_normal_closed(2, 0.0) - 1.0 / math.sqrt(4.0 * math.pi)) < 1e-15
    assert abs(pdf_normal_closed(4, 0.0) - 1.0 / math.sqrt(2.0 * math.pi * 13.0)) < 1e-15
    assert pdf_normal_closed(3, 1e6) == 0.0


def test_moments_examples(exp_model, unif_model, norm_model):
    assert member_form(exp_model, 4).moments() == (5.0, 13.0)
    mean, var = member_form(unif_model, 6).moments()
    assert mean == pytest.approx(6.5)
    assert var == pytest.approx(89.0 / 12.0)
    assert member_form(norm_model, 3).moments() == (0.0, 5.0)


def test_moments_match_fibonacci_identities(exp_model):
    for n in range(2, 25):
        mean, var = member_form(exp_model, n).moments()
        assert mean == float(fib(n + 1))
        assert var == float(fib(2 * n - 1))


def test_mode_exponential_values():
    assert mode_exponential(2) == (1.0, math.exp(-1.0))
    x3, m3 = mode_exponential(3)
    assert abs(x3 - 2.0 * math.log(2.0)) < 1e-15
    assert m3 == pytest.approx(0.25)
    x4, m4 = mode_exponential(4)
    assert abs(x4 - 6.0 * math.log(1.5)) < 1e-15
    assert abs(m4 - 4.0 / 27.0) < 1e-15


def test_mode_exponential_rate_scaling():
    x1, m1 = mode_exponential(5)
    x2, m2 = mode_exponential(5, rate=2.0)
    assert x2 == pytest.approx(x1 / 2.0)
    assert m2 == pytest.approx(2.0 * m1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
def test_mode_exponential_rejects_rates_exponential_rejects(rate):
    with pytest.raises(DomainError):
        Exponential(rate)
    with pytest.raises(DomainError):
        mode_exponential(3, rate)


def test_mode_matches_argmax_of_closed_density():
    # scipy's root finder locates the zero of the closed density's derivative,
    # (exp(-x/a_{n-1})/a_{n-1} - exp(-x/a_n)/a_n) / a_{n-2}, which changes
    # sign once on [0, 3*a_{n+1}]
    optimize = pytest.importorskip("scipy.optimize")
    for n in range(3, 13):
        a_pp, a_prev, a_n = fib(n - 2), fib(n - 1), fib(n)

        def slope(x):
            return (math.exp(-x / a_prev) / a_prev - math.exp(-x / a_n) / a_n) / a_pp

        x_star = optimize.brentq(slope, 0.0, 3.0 * float(fib(n + 1)), xtol=1e-12)
        f_star = pdf_exponential_closed(n, x_star)
        x_exp, f_exp = mode_exponential(n)
        assert abs(x_star - x_exp) < 1e-7
        assert abs(f_star - f_exp) < 1e-7


def test_ratio_diagnostics_rows():
    rows = ratio_diagnostics(20, 20)
    assert len(rows) == 1
    row = rows[0]
    assert row.mean_ratio == 17711 / 10946
    assert abs(row.mean_ratio - PHI) < 1e-8
    assert abs(row.var_ratio - PHI * PHI) < 1e-7
    row3 = ratio_diagnostics(3, 3)[0]
    for value in (row3.max_ratio, row3.mode_ratio, row3.mean_ratio, row3.var_ratio):
        assert math.isfinite(value) and value > 0.0


def test_ratio_diagnostics_monotone_convergence_band():
    rows = ratio_diagnostics(25, 40)
    for row in rows:
        assert abs(row.max_ratio - PHI) < 1e-6
        assert abs(row.mode_ratio - PHI) < 1e-6
        assert abs(row.mean_ratio - PHI) < 1e-6
        assert abs(row.var_ratio - PHI * PHI) < 1e-6
    # deviations shrink monotonically until they reach float noise (~n=37)
    devs = [
        (abs(r.max_ratio - PHI), abs(r.mode_ratio - PHI),
         abs(r.mean_ratio - PHI), abs(r.var_ratio - PHI * PHI))
        for r in rows if r.n <= 35
    ]
    for earlier, later in zip(devs, devs[1:]):
        assert all(b <= a for a, b in zip(earlier, later))


def test_ratio_diagnostics_bounds():
    with pytest.raises(DomainError):
        ratio_diagnostics(2, 10)
    with pytest.raises(DomainError):
        ratio_diagnostics(5, 91)
    with pytest.raises(DomainError):
        ratio_diagnostics(10, 5)


def test_density_laws(exp_model, unif_model, norm_model, triangle_seed):
    xs = (0.3, 4.0, 17.0)
    member = member_law(exp_model, 6)
    assert member.label == "member_6" and member.fields() == {"n": 6}
    hi = exp_model.seed0.effective_support()[1]
    assert member.form.support() == (0.0, (fib(5) + fib(6)) * hi)
    for x in xs:
        assert member.closed(x) == pdf_exponential_closed(6, x)
        assert member.numeric(x) == pdf_numeric(exp_model, 6, x)

    limit, constants = limit_density_law(exp_model), limit_form(exp_model)
    assert limit.label == "limit_law"
    assert limit.fields() == {"a_scale": constants.scale, "b_shift": constants.shift}
    assert limit.form.support() == (-constants.shift / constants.scale,
                                    ((1.0 + PHI) * hi - constants.shift) / constants.scale)
    for x in (-1.0, 0.5, 3.0):
        assert limit.closed(x) == pdf_limit_exponential_closed(x)
        assert limit.numeric(x) == pdf_limit_numeric(exp_model, x)

    sums, reduction = sum_density_law(5, exp_model), sum_form(exp_model, 5)
    mean, variance = reduction.moments()
    assert sums.label == "sum_through_5"
    assert sums.fields() == {"n": 5, "mean": mean, "variance": variance}
    assert sums.form.support() == (0.0, (fib(6) + fib(7) - 1) * hi)
    for x in xs:
        assert sums.closed(x) == pdf_sum_exponential_closed(5, x)
        assert sums.numeric(x) == pdf_sum(5, exp_model, x)

    assert member_law(unif_model, 5).closed(4.0) == pdf_uniform_closed(5, 4.0)
    assert member_law(norm_model, 5).closed(4.0) == pdf_normal_closed(5, 4.0)
    # normal seeds: the limit and the sums stay on the numeric route
    assert limit_density_law(norm_model).closed is None
    assert sum_density_law(5, norm_model).closed is None
    for model in (FsrvModel(Exponential(1.0), Exponential(2.0)),
                  FsrvModel(triangle_seed, triangle_seed)):
        assert member_law(model, 6).closed is None
        assert limit_density_law(model).closed is None
        assert sum_density_law(5, model).closed is None


def test_support_xn(exp_model, unif_model):
    lo, hi = member_form(unif_model, 5).support()
    assert (lo, hi) == (0.0, 8.0)
    lo, hi = member_form(exp_model, 4).support()
    assert lo == 0.0 and math.isfinite(hi)


def test_linear_form_support_and_moments(triangle_seed):
    # one skewed pair so a swapped seed or coefficient would show
    model = FsrvModel(triangle_seed, Exponential(2.0))
    hi = Exponential(2.0).effective_support()[1]
    assert LinearForm(model, 3, 5).support() == (0.0, 6.0 + 5 * hi)
    mean, variance = LinearForm(model, 3, 5).moments()
    assert mean == pytest.approx(3.0 + 2.5, rel=1e-12)
    assert variance == pytest.approx(9.0 / 6.0 + 25.0 / 4.0, rel=1e-12)


# --- closed forms against the generic convolution --------------------------

@pytest.mark.parametrize("n", range(2, 13))
def test_exponential_closed_matches_convolution(exp_model, n):
    xs = np.linspace(0.0, exp_grid(n)[-1], 1000)
    assert grid_sup_distance(exp_model, n, lambda x: pdf_exponential_closed(n, x), xs) <= 1e-6


@pytest.mark.parametrize("n", range(2, 13))
def test_uniform_closed_matches_convolution(unif_model, n):
    xs = np.linspace(0.0, float(fib(n - 1) + fib(n)), 1000)
    assert grid_sup_distance(unif_model, n, lambda x: pdf_uniform_closed(n, x), xs) <= 1e-6


@pytest.mark.parametrize("n", range(2, 13))
def test_normal_closed_matches_convolution(norm_model, n):
    sd = math.sqrt(float(fib(2 * n - 1)))
    xs = np.linspace(-4.0 * sd, 4.0 * sd, 1000)
    assert grid_sup_distance(norm_model, n, lambda x: pdf_normal_closed(n, x), xs) <= 1e-6


@pytest.mark.parametrize("normal_first", [True, False])
def test_mixed_pair_member_meets_the_density_bound(normal_first):
    # member 6 is 5*V0 + 8*V1, the density of c_z*Z + c_e*E, which scipy
    # integrates over E in [0, inf), cut 40 normal sds from the line's peak.
    # At x = 200 the line's mass lies near or past E's effective end 28.32:
    # the relative error there is 5.2e-3 with the normal first and 1.0 with
    # the exponential first, but sigma times it stays below 1.1e-13
    quad = pytest.importorskip("scipy.integrate").quad
    z, e = StandardNormal(), Exponential(1.0)
    model = FsrvModel(z, e) if normal_first else FsrvModel(e, z)
    c_z, c_e = (5.0, 8.0) if normal_first else (8.0, 5.0)

    def oracle(x):
        lo, hi = max(0.0, (x - 40.0 * c_z) / c_e), max(0.0, (x + 40.0 * c_z) / c_e)
        peak = x / c_e - (c_z / c_e) ** 2
        integrand = lambda u: math.exp(-u - 0.5 * ((x - c_e * u) / c_z) ** 2)
        return quad(integrand, lo, hi, points=[peak] if lo < peak < hi else None, epsabs=0.0,
                    epsrel=1e-13, limit=200)[0] / (c_z * math.sqrt(2.0 * math.pi))

    form = member_form(model, 6)
    mean, variance = form.moments()
    sigma = math.sqrt(variance)
    xs = np.append(mean + sigma * np.linspace(-6.0, 6.0, 49), 200.0)
    error = np.abs(form.pdf(xs) - [oracle(float(x)) for x in xs])
    assert sigma * np.max(error) <= 1e-9


@pytest.mark.parametrize("n", range(2, 21))
def test_closed_forms_normalized(n):
    mass_exp = integrate(lambda x: pdf_exponential_closed(n, x), 0.0, 30.0 * fib(n))
    assert abs(mass_exp - 1.0) <= 1e-8
    mass_unif = integrate(lambda x: pdf_uniform_closed(n, x), 0.0,
                          float(fib(n - 1) + fib(n)))
    assert abs(mass_unif - 1.0) <= 1e-8
    sd = math.sqrt(float(fib(2 * n - 1)))
    mass_norm = integrate(lambda x: pdf_normal_closed(n, x), -8.0 * sd, 8.0 * sd)
    assert abs(mass_norm - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_quadrature_moments_match_formulas(exp_model, unif_model, n):
    for model, closed, hi in (
        (exp_model, lambda x: pdf_exponential_closed(n, x), 40.0 * fib(n)),
        (unif_model, lambda x: pdf_uniform_closed(n, x), float(fib(n - 1) + fib(n))),
    ):
        mean, var = member_form(model, n).moments()
        m1 = integrate(lambda x: x * closed(x), 0.0, hi)
        m2 = integrate(lambda x: x * x * closed(x), 0.0, hi)
        assert abs(m1 - mean) <= 1e-6 * abs(mean)
        assert abs((m2 - m1 * m1) - var) <= 1e-6 * var


# --- plateau geometry of the uniform family --------------------------------

def test_uniform_plateau_is_flat_at_inverse_an():
    for n in (5, 8):
        a_prev, a_n = fib(n - 1), fib(n)
        for x in np.linspace(a_prev, a_n, 100):
            assert pdf_uniform_closed(n, float(x)) == 1.0 / a_n


def test_uniform_global_max_is_inverse_an():
    # The ramp peaks exactly at the plateau height, so the observed global
    # maximum is 1/a_n (not 1/a_{n-1}).
    n = 6
    a_prev, a_n = fib(n - 1), fib(n)
    xs = np.linspace(-1.0, float(a_prev + a_n) + 1.0, 4001)
    observed = max(pdf_uniform_closed(n, float(x)) for x in xs)
    assert observed == 1.0 / a_n


def _isinstance_family(s0, s1):
    """The family rule the closed forms were keyed by before seed equality:
    an isinstance test on both seeds, and for exponential seeds one rate."""
    if isinstance(s0, Exponential) and isinstance(s1, Exponential) and s0.rate == s1.rate:
        return "exponential"
    if isinstance(s0, UniformUnit) and isinstance(s1, UniformUnit):
        return "uniform"
    if isinstance(s0, StandardNormal) and isinstance(s1, StandardNormal):
        return "normal"
    return None


_TABLE_NODES = np.linspace(0.0, 1.0, 17) * np.linspace(1.0, 0.0, 17)
_ROUTE_SEEDS = [Exponential(1.0), Exponential(1), Exponential(2.0), Exponential(1e150),
                UniformUnit(), StandardNormal(), Tabulated(0.0, 2.0, _TABLE_NODES),
                Tabulated(0.0, 2.0, _TABLE_NODES)]


@pytest.mark.parametrize("s0", _ROUTE_SEEDS, ids=lambda s: s.spec_string())
@pytest.mark.parametrize("s1", _ROUTE_SEEDS, ids=lambda s: s.spec_string())
def test_closed_routes_follow_seed_equality_as_the_isinstance_rule_did(s0, s1):
    # seed equality picks the same closed form as the isinstance rule on
    # every pair: rates compare by value, tables by identity
    model, n = FsrvModel(s0, s1), 6
    family = _isinstance_family(s0, s1)
    rate = getattr(s0, "rate", None)
    expected = {
        member_law: {"exponential": lambda x: pdf_exponential_closed(n, x, rate),
                     "uniform": lambda x: pdf_uniform_closed(n, x),
                     "normal": lambda x: pdf_normal_closed(n, x)},
        limit_density_law: {"exponential": pdf_limit_exponential_closed,
                            "uniform": pdf_limit_uniform_closed},
        sum_density_law: {"exponential": lambda x: pdf_sum_exponential_closed(n, x, rate)},
    }
    for build, closed_by_family in expected.items():
        law = build(model, n) if build is member_law else \
            build(n, model) if build is sum_density_law else build(model)
        reference = closed_by_family.get(family)
        assert (law.closed is None) == (reference is None), (build.__name__, family)
        if reference is not None:
            xs = np.linspace(*law.form.support(), 9)
            np.testing.assert_array_equal(law.closed(xs), reference(xs))
    # the closed predictor takes unit-rate exponential seeds only
    law43, xs = joint_law(4, 3), np.linspace(0.5, 20.0, 5)
    if family == "exponential" and rate == 1.0:
        np.testing.assert_array_equal(prediction_curve(law43, model, xs, method="closed_form"),
                                      predict_exponential_4_to_7(xs))
    else:
        with pytest.raises(DomainError, match="closed_form prediction"):
            prediction_curve(law43, model, xs, method="closed_form")

