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
    # the panels around the jump shrink to the fixed depth cap of 60 long
    # before the evaluation budget runs out; the count of evaluated points is
    # that of the depth-first scalar recursion the engine replaced
    jump = 1e-10 * math.e
    sizes = []
    step = lambda x: sizes.append(x.size) or np.where(x < jump, 0.0, 1.0)
    with pytest.raises(NonConvergenceError, match="depth 60") as excinfo:
        integrate(step, 0.0, 1.0, QuadratureConfig(abs_tol=1e-16))
    assert sum(sizes) == 249
    assert abs(excinfo.value.partial - (1.0 - jump)) < 1e-9


def test_integrate_evaluation_budget():
    # a tolerance finer than doubles resolve used to bisect every panel to
    # the depth cap, about 2^60 evaluations; the budget stops it at 2^20
    sizes = []
    smooth = lambda x: sizes.append(x.size) or np.exp(-x * x)
    with pytest.raises(NonConvergenceError, match="integrand evaluations") as excinfo:
        integrate(smooth, 0.0, 3.0, QuadratureConfig(abs_tol=1e-300))
    assert sum(sizes) <= 1 << 20
    assert abs(excinfo.value.partial - math.sqrt(math.pi) / 2.0 * math.erf(3.0)) < 0.05


def _depth_first_simpson(f, lo, hi, tol):
    """The scalar depth-first adaptive Simpson recursion the array engine
    replaced, kept as its reference: (integral, sorted nodes evaluated)."""
    nodes = []

    def g(x):
        nodes.append(x)
        return f(x)

    simpson = lambda fa, fm, fb, width: width / 6.0 * (fa + 4.0 * fm + fb)
    fa, fm, fb = g(lo), g((lo + hi) / 2.0), g(hi)
    stack = [(lo, hi, fa, fm, fb, simpson(fa, fm, fb, hi - lo), tol, 0)]
    total = 0.0
    while stack:
        a, b, fa, fm, fb, whole, tol, depth = stack.pop()
        m = (a + b) / 2.0
        lm, rm = (a + m) / 2.0, (m + b) / 2.0
        if not a < lm < m < rm < b:
            total += whole
            continue
        flm, frm = g(lm), g(rm)
        left, right = simpson(fa, flm, fm, m - a), simpson(fm, frm, fb, b - m)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol and depth >= 2 or depth >= 60:
            total += left + right + err
        else:
            stack.append((a, m, fa, flm, fm, left, tol / 2.0, depth + 1))
            stack.append((m, b, fm, frm, fb, right, tol / 2.0, depth + 1))
    return total, sorted(nodes)


@pytest.mark.parametrize("f", [lambda x: np.exp(-x * x), lambda x: np.sin(3.0 * x) ** 2,
                               lambda x: np.sqrt(np.abs(x - 0.3)), lambda x: x * x * x],
                         ids=["gauss", "sin2", "cusp", "cubic"])
def test_integrate_repeats_the_depth_first_recursion(f):
    # same nodes and the same sum, bit for bit, as the scalar recursion
    nodes = []
    got = integrate(lambda x: nodes.extend(x.tolist()) or f(x), -1.0, 2.0, QuadratureConfig(1e-10))
    want, want_nodes = _depth_first_simpson(lambda x: f(np.float64(x)), -1.0, 2.0, 1e-10)
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
            total += _depth_first_simpson(integrand, a, b, 1e-9 / (len(cuts) - 1))[0]
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
