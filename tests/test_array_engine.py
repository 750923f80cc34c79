"""Densities take arrays of points, and the quadrature engine integrates a
batch of rows at once. A value must not depend on the other points of its
batch, and smooth-seed values must match an independent quadrature and, at
the default tolerance, their closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsrv.marginal import (
    FsrvModel,
    linear_form_pdf,
    linear_form_pdf_exponential,
    linear_form_pdf_uniform,
    linear_form_support,
    normal_model,
    pdf_normal_closed,
    pdf_numeric,
)
from fsrv.numerics import DEFAULT_CONFIG, QuadratureConfig
from fsrv.seeds import Exponential, StandardNormal, Tabulated, UniformUnit

rates = st.floats(0.2, 5.0)


@st.composite
def tables(draw):
    """A Tabulated seed with 16 to 24 random nonnegative nodes on [lo, lo + 2]."""
    size = draw(st.integers(16, 24))
    heights = draw(st.lists(st.floats(0.0, 5.0), min_size=size, max_size=size))
    heights[draw(st.integers(0, size - 1))] += 1.0  # some mass
    lo = draw(st.floats(-1.0, 1.0))
    return Tabulated(lo, lo + 2.0, heights)


smooth_models = st.one_of(
    rates.map(lambda rate: FsrvModel(Exponential(rate), Exponential(rate))),
    st.just(FsrvModel(StandardNormal(), StandardNormal())),
    st.just(FsrvModel(UniformUnit(), UniformUnit())),
)
models = st.one_of(
    smooth_models,
    tables().map(lambda seed: FsrvModel(seed, seed)),
    st.tuples(tables(), rates).map(lambda pair: FsrvModel(pair[0], Exponential(pair[1]))),
)
coefficients = st.floats(0.25, 8.0)
# points as fractions of the support, a little of it outside on both sides
fractions = st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=6)


def _points(model, c0, c1, where):
    lo, hi = linear_form_support(model, c0, c1)
    return lo + np.array(where) * (hi - lo)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=models, c0=coefficients, c1=coefficients, where=fractions)
def test_batch_values_do_not_depend_on_the_batch(model, c0, c1, where):
    # the drawn points lead a batch long enough to fill several engine
    # blocks and row groups; reversed, every value sits elsewhere in it
    xs = _points(model, c0, c1, where + list(np.linspace(-0.1, 1.1, 300)))
    batch = linear_form_pdf(model, c0, c1, xs)
    assert batch.shape == xs.shape
    for x, value in zip(xs[:len(where)], batch):
        assert value == linear_form_pdf(model, c0, c1, float(x))  # bit for bit
    np.testing.assert_array_equal(linear_form_pdf(model, c0, c1, xs[::-1]), batch[::-1])


def _scipy_linear_form_pdf(model, c0, c1, x):
    """Density of c0*V0 + c1*V1 at x by scipy quadrature over the t-range the
    seeds' effective supports allow, with the peak of a normal product as a
    breakpoint."""
    quad = pytest.importorskip("scipy.integrate").quad
    s0, s1 = model.seed0, model.seed1
    (a0, b0), (a1, b1) = s0.effective_support(), s1.effective_support()
    t_lo, t_hi = max(c1 * a1, x - c0 * b0), min(c1 * b1, x - c0 * a0)
    if not t_lo < t_hi:
        return 0.0
    peak = x * c1 * c1 / (c0 * c0 + c1 * c1)
    points = [peak] if isinstance(s0, StandardNormal) and t_lo < peak < t_hi else None
    integrand = lambda t: float(s0.pdf((x - t) / c0) * s1.pdf(t / c1))
    value, _ = quad(integrand, t_lo, t_hi, points=points, epsabs=1e-14, epsrel=1e-12, limit=200)
    return value / (c0 * c1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=smooth_models, c0=coefficients, c1=coefficients, where=fractions)
def test_smooth_seed_values_match_scipy(model, c0, c1, where):
    # the error target bounds the integral, and the density divides it by
    # c0*c1 >= 1/16; 1e-12 keeps the density within 1e-9 on every draw
    xs = _points(model, c0, c1, where)
    values = linear_form_pdf(model, c0, c1, xs, QuadratureConfig(abs_tol=1e-12))
    for x, value in zip(xs, values):
        want = _scipy_linear_form_pdf(model, c0, c1, float(x))
        assert math.isfinite(value) and abs(value - want) <= 1e-9


def _closed_linear_form_pdf(model, c0, c1, xs):
    """Closed density of c0*V0 + c1*V1 for iid smooth seeds."""
    seed, (c0, c1) = model.seed0, sorted((c0, c1))
    if isinstance(seed, Exponential):
        return linear_form_pdf_exponential(c0, c1, seed.rate * xs, seed.rate)
    if isinstance(seed, UniformUnit):
        return linear_form_pdf_uniform(c0, c1, xs)
    variance = c0 * c0 + c1 * c1
    return np.exp(-0.5 * xs * xs / variance) / math.sqrt(2.0 * math.pi * variance)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=smooth_models, c0=coefficients, c1=coefficients, where=fractions)
def test_smooth_seed_values_meet_the_default_tolerance(model, c0, c1, where):
    # the default error target bounds the integral, which the density
    # divides by c0*c1; the seeds' truncated tails stay far below that
    xs = _points(model, c0, c1, where)
    values = linear_form_pdf(model, c0, c1, xs)
    bound = DEFAULT_CONFIG.abs_tol / (c0 * c1)
    assert np.max(np.abs(values - _closed_linear_form_pdf(model, c0, c1, xs))) <= bound


def test_numeric_normal_member_meets_the_default_tolerance():
    # member 3 of standard normal seeds is N(0, 5), over +-6 sd
    xs = np.linspace(-6.0, 6.0, 301) * math.sqrt(5.0)
    error = np.abs(pdf_numeric(normal_model(), 3, xs) - pdf_normal_closed(3, xs))
    assert np.max(error) <= DEFAULT_CONFIG.abs_tol
