import math

import numpy as np
import pytest

from fsrv.errors import DomainError
from fsrv.fib_core import PHI, fib
from fsrv.marginal import (
    FsrvModel,
    exponential_model,
    linear_form_moments,
    linear_form_support,
    member_law,
    mode_exponential,
    moments_xn,
    pdf_exponential_closed,
    pdf_normal_closed,
    pdf_numeric,
    pdf_numeric_joint,
    pdf_uniform_closed,
    ratio_diagnostics,
    support_xn,
)
from fsrv.limits import (
    limit_density_law,
    limit_law,
    pdf_limit_exponential_closed,
    pdf_limit_numeric,
    pdf_sum,
    pdf_sum_exponential_closed,
    sum_density_law,
    sum_law,
)
from fsrv.numerics import QuadratureConfig, argmax_scalar, integrate
from fsrv.seeds import Exponential, UniformUnit


def grid_sup_distance(model, n, closed, xs, cfg=QuadratureConfig()):
    return max(abs(pdf_numeric(model, n, float(x), cfg) - closed(float(x))) for x in xs)


def exp_grid(n, points=250):
    mean, var = moments_xn(exponential_model(), n)
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


def test_pdf_numeric_joint_matches_independent_product(exp_model):
    e = Exponential(1.0)
    box = (e.effective_support(), e.effective_support())
    joint = lambda u, v: e.pdf(u) * e.pdf(v)
    got = pdf_numeric_joint(joint, 4, 5.0, box)
    assert abs(got - pdf_numeric(exp_model, 4, 5.0)) < 1e-8


def test_pdf_numeric_joint_uniform_plateau():
    u = UniformUnit()
    joint = lambda a, b: u.pdf(a) * u.pdf(b)
    got = pdf_numeric_joint(joint, 6, 6.0, ((0.0, 1.0), (0.0, 1.0)))
    assert abs(got - 1.0 / 8.0) < 1e-10


def test_pdf_numeric_joint_support_exclusion():
    # joint mass entirely on negative coordinates cannot reach positive x
    e = Exponential(1.0)
    joint = lambda a, b: e.pdf(-a) * e.pdf(-b)
    assert pdf_numeric_joint(joint, 3, 1.0, ((-40.0, 0.0), (-40.0, 0.0))) == 0.0


def test_pdf_numeric_joint_requires_box():
    with pytest.raises(DomainError):
        pdf_numeric_joint(lambda a, b: 1.0, 3, 1.0)
    with pytest.raises(DomainError):
        pdf_numeric_joint(lambda a, b: 1.0, 3, 1.0, ((0.0, math.inf), (0.0, 1.0)))


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
    assert moments_xn(exp_model, 4) == (5.0, 13.0)
    mean, var = moments_xn(unif_model, 6)
    assert mean == pytest.approx(6.5)
    assert var == pytest.approx(89.0 / 12.0)
    assert moments_xn(norm_model, 3) == (0.0, 5.0)


def test_moments_match_fibonacci_identities(exp_model):
    for n in range(2, 25):
        mean, var = moments_xn(exp_model, n)
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


def test_mode_matches_argmax_of_closed_density():
    for n in range(3, 13):
        f = lambda x: pdf_exponential_closed(n, x)
        hi = 3.0 * float(fib(n + 1))
        x_star, f_star = argmax_scalar(f, 0.0, hi, 1e-9)
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
    cfg = QuadratureConfig()
    xs = (0.3, 4.0, 17.0)
    member = member_law(exp_model, 6, cfg)
    assert member.label == "member_6" and member.fields == {"n": 6}
    assert member.support == support_xn(exp_model, 6, effective=True)
    for x in xs:
        assert member.closed(x) == pdf_exponential_closed(6, x)
        assert member.numeric(x) == pdf_numeric(exp_model, 6, x, cfg)

    limit, constants = limit_density_law(exp_model, cfg), limit_law(exp_model)
    assert limit.label == "limit_law"
    assert limit.fields == {"a_scale": constants.a_scale, "b_shift": constants.b_shift}
    hi = exp_model.seed0.effective_support()[1]
    assert limit.support == (-constants.b_shift / constants.a_scale,
                             ((1.0 + PHI) * hi - constants.b_shift) / constants.a_scale)
    for x in (-1.0, 0.5, 3.0):
        assert limit.closed(x) == pdf_limit_exponential_closed(x)
        assert limit.numeric(x) == pdf_limit_numeric(constants, x, cfg)

    sums, reduction = sum_density_law(5, exp_model, cfg), sum_law(5, exp_model)
    assert sums.label == "sum_through_5"
    assert sums.fields == {"n": 5, "mean": reduction.mean, "variance": reduction.variance}
    assert sums.support == (0.0, (fib(6) + fib(7) - 1) * hi)
    for x in xs:
        assert sums.closed(x) == pdf_sum_exponential_closed(5, x)
        assert sums.numeric(x) == pdf_sum(5, exp_model, x, cfg)

    assert member_law(unif_model, 5, cfg).closed(4.0) == pdf_uniform_closed(5, 4.0)
    assert member_law(norm_model, 5, cfg).closed(4.0) == pdf_normal_closed(5, 4.0)
    # normal seeds: the limit and the sums stay on the numeric route
    assert limit_density_law(norm_model, cfg).closed is None
    assert sum_density_law(5, norm_model, cfg).closed is None
    for model in (FsrvModel(Exponential(1.0), Exponential(2.0)),
                  FsrvModel(triangle_seed, triangle_seed)):
        assert member_law(model, 6, cfg).closed is None
        assert limit_density_law(model, cfg).closed is None
        assert sum_density_law(5, model, cfg).closed is None


def test_support_xn(exp_model, unif_model):
    lo, hi = support_xn(unif_model, 5)
    assert (lo, hi) == (0.0, 8.0)
    lo, hi = support_xn(exp_model, 4)
    assert lo == 0.0 and math.isinf(hi)
    lo, hi = support_xn(exp_model, 4, effective=True)
    assert lo == 0.0 and math.isfinite(hi)


def test_linear_form_support_and_moments(triangle_seed):
    # one skewed pair so a swapped seed or coefficient would show
    model = FsrvModel(triangle_seed, Exponential(2.0))
    hi = Exponential(2.0).effective_support()[1]
    assert linear_form_support(model, 3, 5) == (0.0, 6.0 + 5 * hi)
    lo, top = linear_form_support(model, 3, 5, effective=False)
    assert lo == 0.0 and math.isinf(top)
    mean, variance = linear_form_moments(model, 3, 5)
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


@pytest.mark.parametrize("n", range(2, 21))
def test_closed_forms_normalized(n):
    cfg = QuadratureConfig(abs_tol=1e-10)
    mass_exp = integrate(lambda x: pdf_exponential_closed(n, x), 0.0, 30.0 * fib(n), cfg)
    assert abs(mass_exp - 1.0) <= 1e-8
    mass_unif = integrate(lambda x: pdf_uniform_closed(n, x), 0.0,
                          float(fib(n - 1) + fib(n)), cfg)
    assert abs(mass_unif - 1.0) <= 1e-8
    sd = math.sqrt(float(fib(2 * n - 1)))
    mass_norm = integrate(lambda x: pdf_normal_closed(n, x), -8.0 * sd, 8.0 * sd, cfg)
    assert abs(mass_norm - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [2, 5, 9, 12])
def test_quadrature_moments_match_formulas(exp_model, unif_model, n):
    for model, closed, hi in (
        (exp_model, lambda x: pdf_exponential_closed(n, x), 40.0 * fib(n)),
        (unif_model, lambda x: pdf_uniform_closed(n, x), float(fib(n - 1) + fib(n))),
    ):
        mean, var = moments_xn(model, n)
        cfg = QuadratureConfig(abs_tol=1e-10 * max(1.0, mean * mean))
        m1 = integrate(lambda x: x * closed(x), 0.0, hi, cfg)
        m2 = integrate(lambda x: x * x * closed(x), 0.0, hi, cfg)
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
    # maximum is 1/a_n (not 1/a_{n-1}); the plateau midpoint is the argmax
    # reported under the tie-break rule.
    n = 6
    a_prev, a_n = fib(n - 1), fib(n)
    xs = np.linspace(-1.0, float(a_prev + a_n) + 1.0, 4001)
    observed = max(pdf_uniform_closed(n, float(x)) for x in xs)
    assert observed == 1.0 / a_n
    x_star, f_star = argmax_scalar(lambda x: pdf_uniform_closed(n, x),
                                   0.0, float(a_prev + a_n), 1e-9)
    assert x_star == pytest.approx((a_prev + a_n) / 2.0, abs=1e-6)
    assert f_star == 1.0 / a_n
