import math

import numpy as np
import pytest

from fsrv.errors import DomainError, NonConvergenceError
from fsrv.numerics import (
    DensityCurve,
    QuadratureConfig,
    argmax_scalar,
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
    step = lambda x: 0.0 if x < 1.0 / math.e else 1.0
    cfg = QuadratureConfig(abs_tol=1e-16, max_depth=4)
    with pytest.raises(NonConvergenceError) as excinfo:
        integrate(step, 0.0, 1.0, cfg)
    exact = 1.0 - 1.0 / math.e
    assert abs(excinfo.value.partial - exact) < 0.01


def test_scaled_convolution_exponential_pair():
    e = Exponential(1.0)
    sup = e.effective_support(1e-12)
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
    se, su = e.effective_support(1e-12), (0.0, 1.0)
    for x in np.linspace(-1.0, 12.0, 25):
        a = scaled_convolution(e.pdf, u.pdf, 2.0, 5.0, float(x), support0=se, support1=su)
        b = scaled_convolution(u.pdf, e.pdf, 5.0, 2.0, float(x), support0=su, support1=se)
        assert abs(a - b) <= 1e-10


def test_scaled_convolution_normalized_output():
    e = Exponential(1.0)
    sup = e.effective_support(1e-12)
    density = lambda x: scaled_convolution(e.pdf, e.pdf, 2.0, 3.0, x,
                                           support0=sup, support1=sup)
    mass = integrate(density, 0.0, 5.0 * sup[1], QuadratureConfig(abs_tol=1e-8))
    assert abs(mass - 1.0) <= 1e-6


def test_argmax_smooth():
    x_star, f_star = argmax_scalar(lambda x: x * math.exp(-x), 0.0, 20.0, 1e-10)
    assert abs(x_star - 1.0) < 1e-8
    assert abs(f_star - math.exp(-1.0)) < 1e-12


def test_argmax_constant_returns_midpoint():
    x_star, f_star = argmax_scalar(lambda x: 1.0, 0.0, 1.0, 1e-10)
    assert x_star == pytest.approx(0.5, abs=1e-9)
    assert f_star == 1.0


def test_argmax_concave_quadratic_vertex():
    for vertex in (-1.25, 0.3, 4.0):
        x_star, f_star = argmax_scalar(lambda x: -((x - vertex) ** 2) + 2.0,
                                       vertex - 5.0, vertex + 7.0, 1e-8)
        assert abs(x_star - vertex) < 1e-8
        assert abs(f_star - 2.0) < 1e-12


def test_argmax_plateau_midpoint():
    def flat_top(x):
        if x < 3.0:
            return x / 3.0
        if x <= 5.0:
            return 1.0
        return max(0.0, (8.0 - x) / 3.0)

    x_star, f_star = argmax_scalar(flat_top, 0.0, 8.0, 1e-9)
    assert abs(x_star - 4.0) < 1e-6
    assert f_star == 1.0


def test_argmax_validation():
    with pytest.raises(DomainError):
        argmax_scalar(lambda x: x, 1.0, 1.0, 1e-8)
    with pytest.raises(DomainError):
        argmax_scalar(lambda x: x, 0.0, 1.0, -1e-8)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(tail_mass_cutoff=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=bad)
        with pytest.raises(DomainError):
            QuadratureConfig(tail_mass_cutoff=bad)


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
    lo, hi = e.effective_support(1e-12)
    curve = DensityCurve.from_function(e.pdf, 0.0, 5.0, 64, (lo, hi))
    assert curve.norm_defect < 1e-9
    assert curve.xs.size == 64
    assert curve.ys[0] == 1.0
