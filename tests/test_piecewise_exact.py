"""Exact per-piece quadrature for piecewise-linear seeds.

Between the images of the seed nodes the convolution integrand of
c0*V0 + c1*V1 is quadratic, so its density is a piecewise cubic with knots
c0*b0 + c1*b1, and one Simpson panel per piece is exact. The properties
below draw random piecewise-linear seeds and check the densities, their
certificates and the joint mass against exact values and scipy quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsrv.errors import NonConvergenceError
from fsrv.fib_core import fib
from fsrv.joint_predict import joint_law, joint_normalization_check
from fsrv.limits import limit_density_law, sum_density_law
from fsrv.marginal import FsrvModel, linear_form_knots, linear_form_pdf, member_law
from fsrv.numerics import DensityCurve, QuadratureConfig, integrate, scaled_convolution
from fsrv.seeds import Exponential, Tabulated


@st.composite
def piecewise_linear_seeds(draw):
    """A Tabulated seed with 16 to 40 random nonnegative nodes on a random
    [lo, hi]; end nodes may be nonzero, so the density may jump there."""
    size = draw(st.integers(16, 40))
    heights = draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size))
    heights[draw(st.integers(0, size - 1))] += 1.0  # some mass
    lo = draw(st.floats(-3.0, 3.0))
    width = draw(st.floats(0.5, 4.0))
    return Tabulated(lo, lo + width, heights)


def _scipy_linear_form_pdf(model, c0, c1, x):
    """Density of c0*V0 + c1*V1 at x by scipy quadrature, split at every
    node image so each call sees one quadratic piece."""
    quad = pytest.importorskip("scipy.integrate").quad
    s0, s1 = model.seed0, model.seed1
    t_lo = max(c1 * s1.lo, x - c0 * s0.hi)
    t_hi = min(c1 * s1.hi, x - c0 * s0.lo)
    if t_lo >= t_hi:
        return 0.0
    cuts = np.concatenate((x - c0 * s0.grid, c1 * s1.grid, (t_lo, t_hi)))
    cuts = np.unique(np.clip(cuts, t_lo, t_hi))

    def integrand(t):
        return s0.pdf(min(max((x - t) / c0, s0.lo), s0.hi)) * s1.pdf(min(max(t / c1, s1.lo),
                                                                          s1.hi))

    # full_output returns QUADPACK's complaints about slivers a few ulps wide
    # instead of warning; the 21-point rule is exact on each quadratic piece
    total = sum(quad(integrand, a, b, epsabs=1e-14, epsrel=1e-12, full_output=1)[0]
                for a, b in zip(cuts[:-1], cuts[1:]))
    return total / (c0 * c1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed0=piecewise_linear_seeds(), seed1=piecewise_linear_seeds(), n=st.integers(2, 8),
       k=st.integers(1, 3))
def test_certificates_and_joint_mass_are_exact(seed0, seed1, n, k):
    model = FsrvModel(seed0, seed1)
    laws = (member_law(model, n), sum_density_law(n, model), limit_density_law(model))
    for law in laws:
        assert law.knots is not None
        curve = DensityCurve.from_function(law.numeric, law.support[0], law.support[1], 3,
                                           law.support, knots=law.knots)
        assert curve.norm_defect <= 1e-12, law.label
    assert abs(joint_normalization_check(joint_law(n, k), model) - 1.0) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed0=piecewise_linear_seeds(), seed1=piecewise_linear_seeds(), n=st.integers(2, 8),
       where=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_linear_form_pdf_matches_scipy(seed0, seed1, n, where):
    model = FsrvModel(seed0, seed1)
    c0, c1 = float(fib(n - 1)), float(fib(n))
    lo, hi = c0 * seed0.lo + c1 * seed1.lo, c0 * seed0.hi + c1 * seed1.hi
    xs = np.array([lo + u * (hi - lo) for u in where])
    batch = linear_form_pdf(model, c0, c1, xs)
    for x, value in zip(xs, batch):
        want = _scipy_linear_form_pdf(model, c0, c1, float(x))
        assert abs(linear_form_pdf(model, c0, c1, float(x)) - want) <= 1e-12
        assert abs(value - want) <= 1e-12


def test_knot_mode_integrate_is_exact_on_piecewise_cubics():
    # a truncated-power cubic spline: a cubic plus sum of a_j*(x - k_j)_+^3
    rng = np.random.default_rng(20261018)
    for _ in range(20):
        lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
        knots = np.sort(rng.uniform(lo, hi, rng.integers(1, 30)))
        amps = rng.normal(size=knots.size)
        poly = rng.normal(size=4)

        def f(x):
            x = np.asarray(x, dtype=np.float64)
            out = np.polynomial.polynomial.polyval(x, poly)
            return out + np.sum(amps * np.maximum(x[..., None] - knots, 0.0) ** 3, axis=-1)

        antiderivative = np.polynomial.polynomial.polyint(poly)
        exact = (np.polynomial.polynomial.polyval(hi, antiderivative)
                 - np.polynomial.polynomial.polyval(lo, antiderivative)
                 + float(np.sum(amps * (hi - knots) ** 4 / 4.0)))
        # knots outside [lo, hi] and repeated knots are harmless
        extra = np.concatenate((knots, knots[:3], [lo - 1.0, hi + 1.0]))
        got = integrate(f, lo, hi, knots=extra)
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


def test_knot_mode_integrate_calls_f_in_bounded_chunks():
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.ones_like(x)

    assert integrate(f, 0.0, 1.0, knots=np.linspace(0.0, 1.0, 10_001)) == pytest.approx(1.0)
    assert sum(sizes) == 2 * 10_000 + 1
    assert len(sizes) > 1 and max(sizes) <= 1 << 12


def test_tabulated_pdf_takes_arrays(triangle_seed):
    xs = np.array([[-0.5, 0.0, 0.3], [1.0, 1.7, 2.0], [2.0 + 1e-9, 5.0, 0.125]])
    expected = [[triangle_seed.pdf(float(x)) for x in row] for row in xs]
    np.testing.assert_allclose(triangle_seed.pdf(xs), expected, rtol=0.0, atol=1e-15)


def test_exact_convolution_takes_scalars_and_arrays(triangle_seed):
    model = FsrvModel(triangle_seed, triangle_seed)
    xs = np.linspace(-1.0, 12.0, 50).reshape(5, 10)
    batch = linear_form_pdf(model, 2.0, 3.0, xs)
    assert batch.shape == xs.shape
    assert isinstance(linear_form_pdf(model, 2.0, 3.0, 4.5), float)
    for x, value in zip(xs.ravel(), batch.ravel()):
        assert value == pytest.approx(linear_form_pdf(model, 2.0, 3.0, float(x)), abs=1e-15)
    assert linear_form_pdf(model, 2.0, 3.0, -1.0) == 0.0 and batch[0, 0] == 0.0


def test_exact_convolution_validates_the_tolerance(triangle_seed):
    # validated as on the adaptive route: a share that underflows fails
    with pytest.raises(NonConvergenceError, match="underflows to 0"):
        scaled_convolution(triangle_seed.pdf, triangle_seed.pdf, 1.0, 2.0, 1.0,
                           QuadratureConfig(1e-323), (0.0, 2.0), (0.0, 2.0),
                           triangle_seed.breakpoints(), triangle_seed.breakpoints(),
                           piecewise_linear=True)


def test_linear_form_knots(triangle_seed):
    model = FsrvModel(triangle_seed, triangle_seed)
    knots = linear_form_knots(model, 2, 3)
    # nodes i/8, i = 0..16: knots (2*i + 3*j)/8, each value kept once
    want = sorted({2 * i + 3 * j for i in range(17) for j in range(17)})
    np.testing.assert_allclose(knots, np.array(want) / 8.0, rtol=0.0, atol=1e-14)
    # a seed that is not piecewise linear keeps the adaptive route
    assert linear_form_knots(FsrvModel(triangle_seed, Exponential(1.0)), 2, 3) is None
    mixed = member_law(FsrvModel(triangle_seed, Exponential(1.0)), 4)
    assert mixed.knots is None and math.isfinite(mixed.numeric(2.0))
