import math

import numpy as np
import pytest

from fsrv.errors import DomainError, NonConvergenceError
from fsrv.numerics import (
    _WG,
    _WK,
    _XK,
    DensityCurve,
    QuadratureConfig,
    integrate,
    scaled_convolution,
)
from fsrv.seeds import Exponential, UniformUnit


def test_integrate_known_values():
    # mean of a unit exponential; mass beyond 60 is ~1e-24
    assert abs(integrate(lambda x: x * np.exp(-x), 0.0, 60.0) - 1.0) < 1e-9
    assert integrate(np.ones_like, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    # member-2 exponential density x*exp(-x) integrates to one
    assert abs(integrate(lambda x: x * np.exp(-x), 0.0, 80.0) - 1.0) < 1e-9


def test_integrate_degenerate_and_invalid_bounds():
    assert integrate(lambda x: np.full_like(x, 5.0), 2.0, 2.0) == 0.0
    with pytest.raises(DomainError):
        integrate(np.ones_like, 1.0, 0.0)


def test_integrate_linearity():
    tol = 1e-9
    f = lambda x: np.sin(x) ** 2
    g = lambda x: np.exp(-x)
    combined = integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 5.0)
    parts = 2.0 * integrate(f, 0.0, 5.0) + 3.0 * integrate(g, 0.0, 5.0)
    assert abs(combined - parts) <= 3.0 * tol


def test_integrate_nonconvergence_carries_partial():
    # every panel at 0 sees the singularity, so the panels there shrink to
    # the fixed depth cap of 60 long before the evaluation budget runs out;
    # the points evaluated and the partial sum are those of the scalar
    # recursion, and the partial misses only the mass next to 0
    sizes = []
    singular = lambda x: sizes.append(x.size) or 1.0 / np.sqrt(x)
    with pytest.raises(NonConvergenceError, match="depth 60") as excinfo:
        integrate(singular, 0.0, 1.0)
    want, want_nodes = _depth_first_qk15(lambda x: 1.0 / np.sqrt(np.float64(x)), 0.0, 1.0, 1e-9)
    assert sum(sizes) == len(want_nodes)
    assert excinfo.value.partial == want
    assert abs(excinfo.value.partial - 2.0) < 1e-9


def test_integrate_evaluation_budget():
    # a tolerance finer than doubles resolve used to bisect every panel to
    # the depth cap, about 2^60 evaluations; the budget stops it at 2^20
    sizes = []
    smooth = lambda x: sizes.append(x.size) or np.exp(-x * x)
    with pytest.raises(NonConvergenceError, match="integrand evaluations") as excinfo:
        integrate(smooth, 0.0, 3.0, QuadratureConfig(abs_tol=1e-300))
    assert sum(sizes) <= 1 << 20
    assert abs(excinfo.value.partial - math.sqrt(math.pi) / 2.0 * math.erf(3.0)) < 0.05


def _depth_first_qk15(f, lo, hi, tol):
    """Scalar depth-first adaptive Gauss-Kronrod 7/15 recursion, the array
    engine's reference: (integral, sorted nodes evaluated). The first
    bisection is forced, each bisection halves the tolerance, and a panel is
    accepted once |K15 - G7| meets it, once its midpoint is not
    representable, or at depth 60."""
    nodes = []
    stack, total = [(lo, hi, tol, 0)], 0.0
    while stack:
        a, b, tol, depth = stack.pop()
        c, h = (a + b) / 2.0, (b - a) / 2.0
        if depth > 0:
            t = c + h * _XK
            nodes.extend(t.tolist())
            g = np.array([f(x) for x in t])
            kronrod, gauss = h * np.sum(g * _WK), h * np.sum(g[1::2] * _WG)
            if abs(kronrod - gauss) <= tol or not a < c < b or depth >= 60:
                total += kronrod
                continue
        stack.append((c, b, tol / 2.0, depth + 1))
        stack.append((a, c, tol / 2.0, depth + 1))
    return total, sorted(nodes)


def test_kronrod_panel_rules():
    # the 7 Gauss nodes and weights are Legendre's, and K15 integrates every
    # polynomial of degree up to 22 over [-1, 1]
    x, w = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(_XK[1::2], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_WG, w, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(_XK, -_XK[::-1])
    for degree in range(23):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert abs(np.sum(_WK * _XK ** degree) - exact) < 1e-15
        if degree < 14:
            assert abs(np.sum(_WG * _XK[1::2] ** degree) - exact) < 1e-15


@pytest.mark.parametrize("f", [lambda x: np.exp(-x * x), lambda x: np.sin(3.0 * x) ** 2,
                               lambda x: np.sqrt(np.abs(x - 0.3)), lambda x: x * x * x],
                         ids=["gauss", "sin2", "cusp", "cubic"])
def test_integrate_repeats_the_depth_first_recursion(f):
    # same nodes and the same sum, bit for bit, as the scalar recursion
    nodes = []
    got = integrate(lambda x: nodes.extend(x.tolist()) or f(x), -1.0, 2.0, QuadratureConfig(1e-10))
    want, want_nodes = _depth_first_qk15(lambda x: f(np.float64(x)), -1.0, 2.0, 1e-10)
    assert got == want
    assert sorted(nodes) == want_nodes


def test_scaled_convolution_repeats_the_recursion_per_piece(triangle_seed):
    # a table seed with an exponential one: the adaptive rows are cut at the
    # table's kinks, and the tolerance is shared over the non-empty pieces
    e = Exponential(1.5)
    se = e.effective_support()
    for x in (0.7, 3.3, 9.0):
        got = scaled_convolution(triangle_seed.pdf, e.pdf, 2.0, 3.0, x, QuadratureConfig(1e-9),
                                 (0.0, 2.0), se, triangle_seed.breakpoints())
        t_lo, t_hi = max(0.0, x - 2.0 * 2.0), min(3.0 * se[1], x)
        cuts = [t_lo] + sorted(c for c in (x - 2.0 * b for b in triangle_seed.breakpoints())
                               if t_lo < c < t_hi) + [t_hi]
        integrand = lambda t: triangle_seed.pdf((x - t) / 2.0) * e.pdf(t / 3.0)
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += _depth_first_qk15(integrand, a, b, 1e-9 / (len(cuts) - 1))[0]
        assert got == total / 6.0


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
