import math

import mpmath as mp
import numpy as np
import pytest

from fsrv import limits
from fsrv.errors import DomainError
from fsrv.fib_core import PHI, fib
from fsrv.limits import (
    cdf_limit_exponential_closed,
    cdf_limit_uniform_closed,
    pdf_limit_exponential_closed,
    pdf_limit_numeric,
    pdf_limit_uniform_closed,
    pdf_sum,
    pdf_sum_exponential_closed,
)
from fsrv.marginal import FsrvModel, limit_form, member_form, sum_form
from fsrv.numerics import integrate
from fsrv.seeds import SeedDistribution

EDGE = -(1.0 + PHI) / math.sqrt(1.0 + PHI * PHI)
UNIF_A = math.sqrt((1.0 + PHI * PHI) / 12.0)
UNIF_B = (1.0 + PHI) / 2.0


def test_support_ends_are_the_double_doubles_of_their_50_digit_values():
    with mp.workdps(50):
        phi = (1 + mp.sqrt(5)) / 2
        for (hi, lo), end in ((limits._EXP_END, -(1 + phi) / mp.sqrt(1 + phi**2)),
                              (limits._UNIFORM_END, -(1 + phi) / mp.sqrt((1 + phi**2) / 3))):
            assert (hi, lo) == (float(end), float(end - hi))


def test_limit_law_constants(exp_model, unif_model):
    law = limit_form(exp_model)
    assert law.scale == pytest.approx(math.sqrt(1.0 + PHI * PHI))
    assert law.shift == pytest.approx(1.0 + PHI)
    ulaw = limit_form(unif_model)
    assert ulaw.scale == pytest.approx(UNIF_A)
    assert ulaw.shift == pytest.approx(UNIF_B)


def test_limit_law_rejects_degenerate_seeds():
    class Point(SeedDistribution):
        def __init__(self, variance):
            self.variance = variance

        def moments(self):
            return 1.0, self.variance

    # a variance rounded below zero used to reach math.sqrt
    for variance in (0.0, -1e-15):
        with pytest.raises(DomainError):
            limit_form(FsrvModel(Point(variance), Point(variance)))


def test_exponential_limit_pdf_support_edge_and_tail():
    assert pdf_limit_exponential_closed(EDGE) == 0.0
    assert pdf_limit_exponential_closed(EDGE - 0.5) == 0.0
    assert pdf_limit_exponential_closed(50.0) < 1e-12


def test_exponential_limit_pdf_matches_quadrature(exp_model):
    got = pdf_limit_exponential_closed(0.0)
    assert abs(got - pdf_limit_numeric(exp_model, 0.0)) < 1e-8


def test_exponential_limit_closed_vs_numeric_grid(exp_model):
    xs = np.linspace(EDGE, 13.0, 500)
    sup = max(abs(pdf_limit_exponential_closed(float(x))
                  - pdf_limit_numeric(exp_model, float(x)))
              for x in xs)
    assert sup <= 1e-8


def test_numeric_exponential_limit_tail_matches_the_closed_form(exp_model):
    # most of the mass at x = 25 lies past the seeds' effective end 28.32
    xs = np.array([15.0, 20.0, 25.0])
    np.testing.assert_allclose(pdf_limit_numeric(exp_model, xs), pdf_limit_exponential_closed(xs),
                               rtol=1e-12, atol=0)


def test_exponential_limit_pdf_is_rate_free():
    # standardization cancels a common seed rate
    from fsrv.seeds import Exponential

    model = FsrvModel(Exponential(3.0), Exponential(3.0))
    for x in (-1.0, 0.0, 1.5, 4.0):
        assert abs(pdf_limit_numeric(model, x) - pdf_limit_exponential_closed(x)) < 1e-8


def test_exponential_limit_cdf_anchors_and_derivative():
    assert cdf_limit_exponential_closed(EDGE) == 0.0
    assert cdf_limit_exponential_closed(40.0) == pytest.approx(1.0, abs=1e-12)
    h = 1e-6
    for x in (-1.0, -0.2, 0.7, 2.0, 6.0):
        deriv = (cdf_limit_exponential_closed(x + h)
                 - cdf_limit_exponential_closed(x - h)) / (2.0 * h)
        assert abs(deriv - pdf_limit_exponential_closed(x)) < 1e-6


def test_uniform_limit_pdf_plateau(unif_model):
    x_mid = (1.3 - UNIF_B) / UNIF_A  # maps into the flat stretch of the trapezoid
    assert pdf_limit_uniform_closed(x_mid) == pytest.approx(UNIF_A / PHI)
    assert abs(pdf_limit_numeric(unif_model, x_mid) - UNIF_A / PHI) < 1e-9


def test_uniform_limit_cdf_support_edges():
    # Y's support is +-(1+phi)/sqrt((1+phi^2)/3): the cdf is 0 from the double
    # just below its lower end down, 1 from the negated double up, and
    # positive on the next double up, which lies inside the support
    with mp.workdps(50):
        phi = (1 + mp.sqrt(5)) / 2
        end = -(1 + phi) / mp.sqrt((1 + phi**2) / 3)
        lo = float(end) if float(end) < end else math.nextafter(float(end), -math.inf)
    for x in (lo, lo - 1.0, -math.inf):
        assert cdf_limit_uniform_closed(x) == 0.0
        assert cdf_limit_uniform_closed(-x) == 1.0
    assert cdf_limit_uniform_closed(math.nextafter(lo, math.inf)) > 0.0


def test_uniform_limit_cdf_value_at_plateau_end():
    # triangle mass 1/(2*phi) plus plateau mass (phi-1)/phi
    x = (PHI - UNIF_B) / UNIF_A
    expected = 1.0 / (2.0 * PHI) + (PHI - 1.0) / PHI
    assert cdf_limit_uniform_closed(x) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.690983, abs=1e-6)


def test_uniform_limit_cdf_continuous_on_dense_grid():
    lo = -UNIF_B / UNIF_A
    hi = (1.0 + PHI - UNIF_B) / UNIF_A
    xs = np.linspace(lo - 0.1, hi + 0.1, 10**4)
    delta = 1e-10
    jumps = np.abs(cdf_limit_uniform_closed(xs + delta) - cdf_limit_uniform_closed(xs - delta))
    assert float(np.max(jumps)) <= 1e-9


def test_uniform_limit_cdf_nondecreasing_and_matches_pdf():
    lo = -UNIF_B / UNIF_A
    hi = (1.0 + PHI - UNIF_B) / UNIF_A
    xs = np.linspace(lo, hi, 2000)
    vals = cdf_limit_uniform_closed(xs)
    assert np.all(np.diff(vals) >= -1e-15)
    h = 1e-6
    for x in np.linspace(lo + 0.05, hi - 0.05, 300):
        deriv = (cdf_limit_uniform_closed(float(x) + h)
                 - cdf_limit_uniform_closed(float(x) - h)) / (2.0 * h)
        assert abs(deriv - pdf_limit_uniform_closed(float(x))) < 1e-6


def test_sum_law_coefficients_and_moments(exp_model, unif_model, norm_model):
    law = sum_form(exp_model, 10)
    assert (law.c0, law.c1) == (fib(11), fib(12) - 1)
    mean = law.standardized().shift
    assert mean == 89.0 + 144.0 - 1.0 == 232.0
    mean_u = sum_form(unif_model, 5).standardized().shift
    assert mean_u == pytest.approx((8.0 + 13.0 - 1.0) / 2.0) == 10.0
    law_n = sum_form(norm_model, 7)
    mean_n, sd_n = law_n.standardized().shift, law_n.standardized().scale
    assert mean_n == 0.0
    assert sd_n == pytest.approx(math.sqrt(float(law_n.c0**2 + law_n.c1**2)))


def test_sum_index_bounds(exp_model):
    with pytest.raises(DomainError):
        sum_form(exp_model, 1)
    with pytest.raises(DomainError):
        pdf_sum(1, exp_model, 1.0)


def test_sum_closed_form_example_coefficients(exp_model):
    # n=4: A = a_5 = 5, B = a_6 - 1 = 7, density (e^{-x/7} - e^{-x/5}) / 2
    for x in (0.5, 3.0, 11.0):
        expected = (math.exp(-x / 7.0) - math.exp(-x / 5.0)) / 2.0
        assert pdf_sum_exponential_closed(4, x) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", range(2, 11))
def test_sum_closed_matches_convolution(exp_model, n):
    mean, variance = sum_form(exp_model, n).moments()
    hi = mean + 10.0 * math.sqrt(variance)
    for x in np.linspace(0.0, hi, 80):
        got = pdf_sum(n, exp_model, float(x))
        assert abs(got - pdf_sum_exponential_closed(n, float(x))) <= 1e-8


@pytest.mark.parametrize("n", range(2, 11))
def test_sum_density_normalized(exp_model, n):
    hi = 30.0 * sum_form(exp_model, n).c1
    mass = integrate(lambda x: pdf_sum_exponential_closed(n, x), 0.0, hi)
    assert abs(mass - 1.0) <= 1e-8


def test_sum_uniform_mean_by_quadrature(unif_model):
    law = sum_form(unif_model, 3)
    hi = float(law.c0 + law.c1)
    mean = integrate(lambda x: x * pdf_sum(3, unif_model, x), 0.0, hi)
    assert abs(mean - 3.5) < 1e-6


# --- convergence of the standardized member to the limit law ---------------

def standardized_member_cdf_sup(model, n, member_pdf, target_cdf, lo_clip):
    mean, var = member_form(model, n).moments()
    sd = math.sqrt(var)
    ys = np.linspace(-3.5, 8.0, 240)
    cum, prev_x, sup = 0.0, lo_clip, 0.0
    for y in ys:
        x = max(mean + sd * float(y), lo_clip)
        if x > prev_x:
            cum += integrate(member_pdf, prev_x, x)
            prev_x = x
        sup = max(sup, abs(cum - float(target_cdf(float(y)))))
    return sup


def test_standardized_member_converges_exponential(exp_model):
    from fsrv.marginal import pdf_exponential_closed

    sup = standardized_member_cdf_sup(exp_model, 30, lambda x: pdf_exponential_closed(30, x),
                                      cdf_limit_exponential_closed, 0.0)
    assert sup <= 0.01


def test_standardized_member_converges_uniform(unif_model):
    from fsrv.marginal import pdf_uniform_closed

    sup = standardized_member_cdf_sup(unif_model, 30, lambda x: pdf_uniform_closed(30, x),
                                      cdf_limit_uniform_closed, 0.0)
    assert sup <= 0.01
