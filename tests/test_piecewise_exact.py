"""Exact per-piece quadrature for piecewise-linear seeds.

Between the images of the seed nodes the convolution integrand of
c0*V0 + c1*V1 is quadratic, so its density is a piecewise cubic with knots
c0*b0 + c1*b1, and one two-point Gauss-Legendre panel per piece is exact.
Its nodes lie inside the piece, so a seed density may jump at its support
ends. The properties below draw random piecewise-linear seeds and check the
densities, their certificates and the joint mass against exact values and
scipy quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsrv.fib_core import fib
from fsrv.joint_predict import joint_law, joint_normalization_check
from fsrv.limits import limit_density_law, sum_density_law
from fsrv.marginal import FsrvModel, LinearForm, member_law
from fsrv.numerics import (DensityCurve, QuadratureConfig, _integrate_rows, integrate,
                           scaled_convolution)
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
        support, knots = law.form.support(), law.form.knots()
        assert knots is not None
        curve = DensityCurve.from_function(law.numeric, support[0], support[1], 3, support,
                                           knots=knots)
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
    batch = LinearForm(model, c0, c1).pdf(xs)
    for x, value in zip(xs, batch):
        want = _scipy_linear_form_pdf(model, c0, c1, float(x))
        assert abs(LinearForm(model, c0, c1).pdf(float(x)) - want) <= 1e-12
        assert abs(value - want) <= 1e-12


def test_knot_mode_integrate_is_exact_on_piecewise_cubics():
    # a truncated-power cubic spline, a cubic plus sum of a_j*(x - k_j)_+^3,
    # plus steps b_j*(x >= k_j): f may jump at every knot
    rng = np.random.default_rng(20261018)
    for _ in range(20):
        lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
        knots = np.sort(rng.uniform(lo, hi, rng.integers(1, 30)))
        amps = rng.normal(size=knots.size)
        steps = rng.normal(size=knots.size)
        poly = rng.normal(size=4)

        def f(x):
            x = np.asarray(x, dtype=np.float64)
            out = np.polynomial.polynomial.polyval(x, poly)
            out = out + np.sum(amps * np.maximum(x[..., None] - knots, 0.0) ** 3, axis=-1)
            return out + np.sum(steps * (x[..., None] >= knots), axis=-1)

        antiderivative = np.polynomial.polynomial.polyint(poly)
        exact = (np.polynomial.polynomial.polyval(hi, antiderivative)
                 - np.polynomial.polynomial.polyval(lo, antiderivative)
                 + float(np.sum(amps * (hi - knots) ** 4 / 4.0))
                 + float(np.sum(steps * (hi - knots))))
        # knots outside [lo, hi] and repeated knots are harmless
        extra = np.concatenate((knots, knots[:3], [lo - 1.0, hi + 1.0]))
        got = integrate(f, lo, hi, knots=extra)
        assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


def test_knot_mode_integrate_calls_f_once_per_batch():
    # one row of 10,000 pieces does not fit a batch of _CHUNK_ELEMENTS nodes,
    # so it is a batch alone, and the engine calls f once on all its nodes
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.ones_like(x)

    assert integrate(f, 0.0, 1.0, knots=np.linspace(0.0, 1.0, 10_001)) == pytest.approx(1.0)
    assert sizes == [2 * 10_000]  # two nodes per piece, no shared ends


@pytest.mark.parametrize("abs_tol", [None, QuadratureConfig().abs_tol], ids=["exact", "adaptive"])
def test_the_engine_never_evaluates_a_cut(abs_tol):
    # f counts the cuts at or left of t: constant inside each piece and one
    # higher at every cut, so a node on a cut would change the integral
    cuts = np.array([[0.0, 0.25, 0.5, 1.0], [-3.0, -1.0, 1.0, 4.0]])
    seen = []

    def f(t, row):
        row = np.broadcast_to(row, t.shape)
        seen.append((t.ravel(), row.ravel()))
        return np.sum(t[..., None] >= cuts[row], axis=-1)

    got = _integrate_rows(f, 2, cuts.shape[1], lambda i, j: cuts[i:j], abs_tol)
    t, row = (np.concatenate(v) for v in zip(*seen))
    assert t.size and not np.any(t[:, None] == cuts[row])
    np.testing.assert_allclose(got, np.sum(np.diff(cuts, axis=1) * [1, 2, 3], axis=1),
                               rtol=1e-15)


def test_tabulated_pdf_takes_arrays(triangle_seed):
    xs = np.array([[-0.5, 0.0, 0.3], [1.0, 1.7, 2.0], [2.0 + 1e-9, 5.0, 0.125]])
    expected = [[triangle_seed.pdf(float(x)) for x in row] for row in xs]
    np.testing.assert_allclose(triangle_seed.pdf(xs), expected, rtol=0.0, atol=1e-15)


def test_exact_convolution_takes_scalars_and_arrays(triangle_seed):
    model = FsrvModel(triangle_seed, triangle_seed)
    xs = np.linspace(-1.0, 12.0, 50).reshape(5, 10)
    batch = LinearForm(model, 2.0, 3.0).pdf(xs)
    assert batch.shape == xs.shape
    assert isinstance(LinearForm(model, 2.0, 3.0).pdf(4.5), float)
    for x, value in zip(xs.ravel(), batch.ravel()):
        assert value == pytest.approx(LinearForm(model, 2.0, 3.0).pdf(float(x)), abs=1e-15)
    assert LinearForm(model, 2.0, 3.0).pdf(-1.0) == 0.0 and batch[0, 0] == 0.0


def test_exact_convolution_ignores_the_tolerance(triangle_seed):
    # exact mode does not consult cfg, not even one whose share per piece
    # would underflow to 0 on the adaptive route
    xs = np.linspace(-1.0, 8.0, 37)
    fine = scaled_convolution(triangle_seed, triangle_seed, 1.0, 2.0, xs, QuadratureConfig(1e-323))
    assert fine.tobytes() == scaled_convolution(triangle_seed, triangle_seed, 1.0, 2.0, xs).tobytes()


def test_linear_form_knots(triangle_seed):
    model = FsrvModel(triangle_seed, triangle_seed)
    knots = LinearForm(model, 2, 3).knots()
    # nodes i/8, i = 0..16: knots (2*i + 3*j)/8, each value kept once
    want = sorted({2 * i + 3 * j for i in range(17) for j in range(17)})
    np.testing.assert_allclose(knots, np.array(want) / 8.0, rtol=0.0, atol=1e-14)
    # a seed that is not piecewise linear keeps the adaptive route
    assert LinearForm(FsrvModel(triangle_seed, Exponential(1.0)), 2, 3).knots() is None
    mixed = member_law(FsrvModel(triangle_seed, Exponential(1.0)), 4)
    assert mixed.form.knots() is None and math.isfinite(mixed.numeric(2.0))
