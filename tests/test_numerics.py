import math

import numpy as np
import pytest

from fsrv.errors import DomainError, NonConvergenceError
from fsrv.joint_predict import joint_law, predict
from fsrv.marginal import FsrvModel, LinearForm, exponential_model, member_form
from fsrv.numerics import (
    _WG,
    _WK,
    _XK,
    DensityCurve,
    QuadratureConfig,
    dekker_split,
    integrate,
    scaled_convolution,
)
from fsrv.seeds import Exponential, StandardNormal, UniformUnit


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


@pytest.mark.parametrize("lo,hi", [(0.0, math.nan), (math.nan, 1.0), (-math.inf, 0.0),
                                   (0.0, math.inf)])
def test_integrate_refuses_bounds_that_are_not_finite(lo, hi):
    # a nan bound used to read 0.0 and an infinite one nan, with no error
    calls = []
    with pytest.raises(DomainError, match="must be finite"):
        integrate(lambda x: calls.append(x) or np.ones_like(x), lo, hi)
    assert not calls


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
    # it raises after evaluating the points of the scalar recursion
    sizes = []
    singular = lambda x: sizes.append(x.size) or 1.0 / np.sqrt(x)
    with pytest.raises(NonConvergenceError, match="depth 60"):
        integrate(singular, 0.0, 1.0)
    _, want_nodes = _depth_first_qk15(lambda x: 1.0 / np.sqrt(np.float64(x)), 0.0, 1.0, 1e-9)
    assert sum(sizes) == len(want_nodes)


def test_integrate_evaluation_budget():
    # a tolerance finer than doubles resolve used to bisect every panel to
    # the depth cap, about 2^60 evaluations; the budget stops it at 2^20
    sizes = []
    smooth = lambda x: sizes.append(x.size) or np.exp(-x * x)
    with pytest.raises(NonConvergenceError, match="integrand evaluations"):
        integrate(smooth, 0.0, 3.0, QuadratureConfig(abs_tol=1e-300))
    assert sum(sizes) <= 1 << 20


def test_a_tolerance_share_that_underflows_fails(triangle_seed):
    # a table seed with exp:1 stays adaptive, and 5e-324 shared over its
    # pieces underflows to 0: a target no panel can meet
    with pytest.raises(NonConvergenceError, match="underflows to 0"):
        scaled_convolution(triangle_seed, Exponential(1.0), 1.0, 2.0, 1.0,
                           QuadratureConfig(5e-324))


def test_a_positive_target_whose_piece_share_underflows_fails(triangle_seed):
    # the density target 5e-324*c0/sigma is the smallest subnormal, not 0,
    # but its share over the row's pieces underflows to 0
    sigma = math.hypot(5.0 * math.sqrt(triangle_seed.moments()[1]), 3.0)
    assert 5e-324 * 5.0 / sigma > 0.0
    with pytest.raises(NonConvergenceError, match="underflows to 0"):
        scaled_convolution(triangle_seed, Exponential(1.0), 5.0, 3.0, 4.0,
                           QuadratureConfig(5e-324))


def test_a_density_target_that_overflows_is_refused():
    # member 4 of exp:1e150 seeds has sd about 3e-150, so 1e300 scales to an
    # infinite target, which every panel would meet at once
    form = member_form(exponential_model(1e150), 4)
    assert math.isfinite(form.pdf(3e-150))
    with pytest.raises(DomainError, match="overflows"):
        form.pdf(3e-150, QuadratureConfig(1e300))


def _depth_first_qk15(f, lo, hi, tol):
    """Scalar depth-first adaptive Gauss-Kronrod 7/15 recursion, the array
    engine's reference: (integral, sorted nodes evaluated). The first
    bisection is forced, each bisection halves the tolerance, and a panel is
    accepted once |K15 - G7| meets it, once its midpoint is not
    representable, or at depth 60. A panel that misses at depth 1 is
    bisected twice, so its four depth-3 quarters are evaluated next; every
    other miss is bisected once."""
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
        splits = 2 if depth == 1 else 1
        panels = [(a, b)]
        for _ in range(splits):
            panels = [half for u, v in panels for half in ((u, (u + v) / 2.0), ((u + v) / 2.0, v))]
        stack.extend((u, v, tol / 2.0**splits, depth + splits) for u, v in reversed(panels))
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
                               lambda x: np.sqrt(np.abs(x - 0.3)), lambda x: x * x * x,
                               lambda x: 1.0 / (1.0 + x * x)],
                         ids=["gauss", "sin2", "cusp", "cubic", "runge"])
def test_integrate_repeats_the_depth_first_recursion(f):
    # same nodes and the same sum, bit for bit, as the scalar recursion;
    # runge's depth-1 halves miss their share and its depth-2 quarters would
    # meet theirs, so quartering spends eight depth-3 panels where four
    # depth-2 ones would do: the price of the rule, pinned by the nodes
    nodes = []
    got = integrate(lambda x: nodes.extend(x.tolist()) or f(x), -1.0, 2.0, QuadratureConfig(1e-10))
    want, want_nodes = _depth_first_qk15(lambda x: f(np.float64(x)), -1.0, 2.0, 1e-10)
    assert got == want
    assert sorted(nodes) == want_nodes


def test_scaled_convolution_repeats_the_recursion_per_piece(triangle_seed):
    # a table seed with an exponential one: the adaptive rows run over
    # u = V1, cut at the images of the table's kinks, and the target
    # abs_tol*c0/sigma is shared over the non-empty pieces
    e = Exponential(1.5)
    se = e.effective_support()
    sd0, sd1 = (math.sqrt(seed.moments()[1]) for seed in (triangle_seed, e))
    sigma = math.hypot(2.0 * sd0, 3.0 * sd1)
    for x in (0.7, 3.3, 9.0):
        got = scaled_convolution(triangle_seed, e, 2.0, 3.0, x, QuadratureConfig(1e-9))
        u_lo, u_hi = max(0.0, (x - 2.0 * 2.0) / 3.0), min(se[1], x / 3.0)
        images = ((x - 2.0 * b) / 3.0 for b in triangle_seed.breakpoints())
        cuts = [u_lo] + sorted(c for c in images if u_lo < c < u_hi) + [u_hi]
        integrand = lambda u: triangle_seed.pdf((x - 3.0 * u) / 2.0) * e.pdf(u)
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += _depth_first_qk15(integrand, a, b, 1e-9 * 2.0 / sigma / (len(cuts) - 1))[0]
        assert got == total / 2.0


def test_scaled_convolution_exponential_pair():
    e = Exponential(1.0)
    got = scaled_convolution(e, e, 1.0, 1.0, 1.0)
    assert abs(got - math.exp(-1.0)) < 1e-9  # density of V0+V1 at 1 is e^-1


def test_scaled_convolution_uniform_plateau():
    u = UniformUnit()
    got = scaled_convolution(u, u, 3.0, 5.0, 4.0)
    assert got == pytest.approx(0.2, abs=1e-12)


def test_scaled_convolution_outside_support():
    u = UniformUnit()
    assert scaled_convolution(u, u, 3.0, 5.0, -2.0) == 0.0
    assert scaled_convolution(u, u, 3.0, 5.0, 9.5) == 0.0
    # an infinite x meets exp's infinite end: no width, no warning
    e = Exponential(1.0)
    assert scaled_convolution(e, e, 1.0, 2.0, [math.inf, -math.inf]).tolist() == [0.0, 0.0]


class _UntruncatedExponential(Exponential):
    """An exponential seed whose effective support keeps the infinite tail."""

    def effective_support(self):
        return self.support()


class _UntruncatedNormal(StandardNormal):
    """A normal seed whose effective support keeps both infinite tails."""

    def effective_support(self):
        return self.support()


def test_scaled_convolution_validation():
    u = UniformUnit()
    with pytest.raises(DomainError):
        scaled_convolution(u, u, 0.0, 1.0, 0.5)
    # V0 = 0 and V1 = 0 or 1 end every line, so the infinite tail is no bar
    assert scaled_convolution(_UntruncatedExponential(1.0), u, 1.0, 1.0, 0.5) == pytest.approx(
        -math.expm1(-0.5), rel=1e-12)
    # no end, true or effective, bounds either side of a line
    z = _UntruncatedNormal()
    with pytest.raises(DomainError, match="finite end on each side"):
        scaled_convolution(z, z, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError, match="finite end on each side"):
        predict(joint_law(4, 3), FsrvModel(z, z), 1.0)


@pytest.mark.parametrize("c0,c1", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                   (1.0, math.inf)])
def test_scaled_convolution_refuses_coefficients_that_are_not_finite(triangle_seed, c0, c1):
    with pytest.raises(DomainError, match="scale coefficients must be positive and finite"):
        scaled_convolution(triangle_seed, Exponential(1.0), c0, c1, 3.0)
    with pytest.raises(DomainError, match="scale coefficients must be positive and finite"):
        LinearForm(FsrvModel(triangle_seed, Exponential(1.0)), c0, c1).pdf(3.0)


def test_scaled_convolution_swap_symmetry():
    e = Exponential(1.0)
    u = UniformUnit()
    for x in np.linspace(-1.0, 12.0, 25):
        a = scaled_convolution(e, u, 2.0, 5.0, float(x))
        b = scaled_convolution(u, e, 5.0, 2.0, float(x))
        assert abs(a - b) <= 1e-10


def test_scaled_convolution_normalized_output():
    e = Exponential(1.0)
    density = lambda x: scaled_convolution(e, e, 2.0, 3.0, x)
    mass = integrate(density, 0.0, 5.0 * e.effective_support()[1], QuadratureConfig(abs_tol=1e-8))
    assert abs(mass - 1.0) <= 1e-6


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=bad)


def test_density_curve_validation():
    with pytest.raises(DomainError):
        DensityCurve(xs=np.array([0.0, 1.0]), ys=np.array([1.0, -0.5]), norm_defect=0.0)
    with pytest.raises(DomainError):
        DensityCurve(xs=np.array([1.0, 0.0]), ys=np.array([1.0, 1.0]), norm_defect=0.0)
    with pytest.raises(DomainError):
        DensityCurve(xs=np.array([0.0]), ys=np.array([1.0]), norm_defect=0.0)
    with pytest.raises(DomainError, match="equal length"):
        DensityCurve(xs=np.array([0.0, 1.0, 2.0]), ys=np.array([1.0, 1.0]), norm_defect=0.0)
    for xs in ([0.0, np.inf], [-np.inf, 0.0], [0.0, np.nan, 2.0]):
        with pytest.raises(DomainError):
            DensityCurve(xs=np.array(xs), ys=np.ones(len(xs)), norm_defect=0.0)


def test_density_curve_from_function_certificate():
    e = Exponential(1.0)
    lo, hi = e.effective_support()
    curve = DensityCurve.from_function(e.pdf, 0.0, 5.0, 64, (lo, hi))
    assert curve.norm_defect < 1e-9
    assert curve.xs.size == 64
    assert curve.ys[0] == 1.0


def test_dekker_split_halves_are_exact_and_short():
    a = np.random.default_rng(5).standard_normal(1000) * 10.0 ** np.arange(-150, 150, 0.3)
    hi, lo = dekker_split(a)
    assert np.array_equal(hi + lo, a)
    for half in (hi, lo):  # at most 26 significant bits, so products of halves are exact
        mantissa = np.frexp(half)[0] * 2.0**26
        assert np.array_equal(mantissa, np.round(mantissa))
