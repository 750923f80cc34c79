import math

import numpy as np
import pytest

from fsrv.errors import DomainError, NonConvergenceError
from fsrv.numerics import (
    DensityCurve,
    QuadratureConfig,
    integrate,
    scaled_convolution,
)
from fsrv.seeds import Exponential, UniformUnit


def test_integrate_known_values():
    # mean of a unit exponential; mass beyond 60 is ~1e-24
    assert abs(integrate(lambda x: x * math.exp(-x), 0.0, 60.0) - 1.0) < 1e-9
    assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # member-2 exponential density x*exp(-x) integrates to one
    assert abs(integrate(lambda x: x * math.exp(-x), 0.0, 80.0) - 1.0) < 1e-9


def test_integrate_degenerate_and_invalid_bounds():
    assert integrate(lambda x: 5.0, 2.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        integrate(lambda x: 1.0, 1.0, 0.0)


def test_integrate_linearity():
    tol = 1e-9
    f = lambda x: math.sin(x) ** 2
    g = lambda x: math.exp(-x)
    combined = integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 5.0)
    parts = 2.0 * integrate(f, 0.0, 5.0) + 3.0 * integrate(g, 0.0, 5.0)
    assert abs(combined - parts) <= 3.0 * tol


def test_integrate_nonconvergence_carries_partial():
    # the panels around the jump shrink to the fixed depth cap of 60 long
    # before the evaluation budget runs out
    jump = 1e-10 * math.e
    calls = []
    step = lambda x: calls.append(x) or (0.0 if x < jump else 1.0)
    with pytest.raises(NonConvergenceError, match="depth 60") as excinfo:
        integrate(step, 0.0, 1.0, QuadratureConfig(abs_tol=1e-16))
    assert len(calls) == 249
    assert abs(excinfo.value.partial - (1.0 - jump)) < 1e-9


def test_integrate_evaluation_budget():
    # a tolerance finer than doubles resolve used to bisect every panel to
    # the depth cap, about 2^60 evaluations; the budget stops it at 2^20
    calls = []
    smooth = lambda x: calls.append(x) or math.exp(-x * x)
    with pytest.raises(NonConvergenceError, match="integrand evaluations") as excinfo:
        integrate(smooth, 0.0, 3.0, QuadratureConfig(abs_tol=1e-300))
    assert len(calls) <= 1 << 20
    assert abs(excinfo.value.partial - math.sqrt(math.pi) / 2.0 * math.erf(3.0)) < 0.05


def test_scaled_convolution_exponential_pair():
    e = Exponential(1.0)
    sup = e.effective_support()
    got = scaled_convolution(e.pdf, e.pdf, 1.0, 1.0, 1.0, support0=sup, support1=sup)
    assert abs(got - math.exp(-1.0)) < 1e-9  # density of V0+V1 at 1 is e^-1


def test_scaled_convolution_uniform_plateau():
    u = UniformUnit()
    got = scaled_convolution(u.pdf, u.pdf, 3.0, 5.0, 4.0, support0=(0, 1), support1=(0, 1))
    assert got == pytest.approx(0.2, abs=1e-12)


def test_scaled_convolution_outside_support():
    u = UniformUnit()
    assert scaled_convolution(u.pdf, u.pdf, 3.0, 5.0, -2.0,
                              support0=(0, 1), support1=(0, 1)) == 0.0
    assert scaled_convolution(u.pdf, u.pdf, 3.0, 5.0, 9.5,
                              support0=(0, 1), support1=(0, 1)) == 0.0


def test_scaled_convolution_validation():
    u = UniformUnit()
    with pytest.raises(DomainError):
        scaled_convolution(u.pdf, u.pdf, 0.0, 1.0, 0.5, support0=(0, 1), support1=(0, 1))
    with pytest.raises(DomainError):
        scaled_convolution(u.pdf, u.pdf, 1.0, 1.0, 0.5,
                           support0=(0, math.inf), support1=(0, 1))


def test_scaled_convolution_swap_symmetry():
    e = Exponential(1.0)
    u = UniformUnit()
    se, su = e.effective_support(), (0.0, 1.0)
    for x in np.linspace(-1.0, 12.0, 25):
        a = scaled_convolution(e.pdf, u.pdf, 2.0, 5.0, float(x), support0=se, support1=su)
        b = scaled_convolution(u.pdf, e.pdf, 5.0, 2.0, float(x), support0=su, support1=se)
        assert abs(a - b) <= 1e-10


def test_scaled_convolution_normalized_output():
    e = Exponential(1.0)
    sup = e.effective_support()
    density = lambda x: scaled_convolution(e.pdf, e.pdf, 2.0, 3.0, x,
                                           support0=sup, support1=sup)
    mass = integrate(density, 0.0, 5.0 * sup[1], QuadratureConfig(abs_tol=1e-8))
    assert abs(mass - 1.0) <= 1e-6


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=bad)


def test_density_curve_validation():
    with pytest.raises(DomainError):
        DensityCurve(xs=np.array([0.0, 1.0]), ys=np.array([1.0, -0.5]),
                     support=(0, 1), norm_defect=0.0)
    with pytest.raises(DomainError):
        DensityCurve(xs=np.array([1.0, 0.0]), ys=np.array([1.0, 1.0]),
                     support=(0, 1), norm_defect=0.0)
    with pytest.raises(DomainError):
        DensityCurve(xs=np.array([0.0]), ys=np.array([1.0]),
                     support=(0, 1), norm_defect=0.0)
    for xs in ([0.0, np.inf], [-np.inf, 0.0], [0.0, np.nan, 2.0]):
        with pytest.raises(DomainError):
            DensityCurve(xs=np.array(xs), ys=np.ones(len(xs)), support=(0, 1), norm_defect=0.0)


def test_density_curve_from_function_certificate():
    e = Exponential(1.0)
    lo, hi = e.effective_support()
    curve = DensityCurve.from_function(e.pdf, 0.0, 5.0, 64, (lo, hi))
    assert curve.norm_defect < 1e-9
    assert curve.xs.size == 64
    assert curve.ys[0] == 1.0
