"""Densities take arrays of points, and the quadrature engine integrates a
batch of rows at once. A value must not depend on the other points of its
batch, and smooth-seed values must match an independent quadrature and, at
ABS_TOL, their closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsrv import numerics
from fsrv.joint_predict import joint_law, predict
from fsrv.limits import limit_density_law
from fsrv.marginal import (
    FsrvModel,
    LinearForm,
    exponential_model,
    linear_form_pdf_exponential,
    linear_form_pdf_uniform,
    normal_model,
    pdf_normal_closed,
    pdf_numeric,
)
from fsrv.numerics import ABS_TOL, _integrate_rows
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
    lo, hi = LinearForm(model, c0, c1).support()
    return lo + np.array(where) * (hi - lo)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=models, c0=coefficients, c1=coefficients, where=fractions)
def test_batch_values_do_not_depend_on_the_batch(model, c0, c1, where):
    # the drawn points lead a batch long enough to fill several engine
    # blocks and row groups; reversed, every value sits elsewhere in it
    xs = _points(model, c0, c1, where + list(np.linspace(-0.1, 1.1, 300)))
    batch = LinearForm(model, c0, c1).pdf(xs)
    assert batch.shape == xs.shape
    for x, value in zip(xs[:len(where)], batch):
        assert value == LinearForm(model, c0, c1).pdf(float(x))  # bit for bit
    np.testing.assert_array_equal(LinearForm(model, c0, c1).pdf(xs[::-1]), batch[::-1])


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
    # ABS_TOL bounds sigma times the density's estimated error, and on these
    # smooth integrands |K15 - G7| overstates the error of K15 by far: the
    # density is within 1e-9 on every draw
    xs = _points(model, c0, c1, where)
    values = LinearForm(model, c0, c1).pdf(xs)
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
    # ABS_TOL bounds the integral, which the density
    # divides by c0*c1; the seeds' truncated tails stay far below that
    xs = _points(model, c0, c1, where)
    values = LinearForm(model, c0, c1).pdf(xs)
    bound = ABS_TOL / (c0 * c1)
    assert np.max(np.abs(values - _closed_linear_form_pdf(model, c0, c1, xs))) <= bound


def test_numeric_normal_member_meets_the_default_tolerance():
    # member 3 of standard normal seeds is N(0, 5), over +-6 sd
    xs = np.linspace(-6.0, 6.0, 301) * math.sqrt(5.0)
    error = np.abs(pdf_numeric(normal_model(), 3, xs) - pdf_normal_closed(3, xs))
    assert np.max(error) <= ABS_TOL


def test_zero_width_pieces_cost_the_adaptive_engine_nothing():
    # callers clip their cuts to each row's range, which leaves zero-width
    # pieces; adaptive batches count only pieces of positive width, so rows
    # padded with them take the same integrand calls and give the same values
    rows = 256  # both layouts fetch all rows at once: 4096 nodes // 14 per padded row
    plain = np.arange(rows)[:, None] + np.array([0.0, 1.0])
    padded = np.sort(np.hstack((plain, plain, plain[:, ::-1], plain)), axis=1)
    results = []
    for cuts in (plain, padded):
        sizes = []

        def f(t, row):
            sizes.append(t.size)
            return np.exp(-0.01 * t) * np.cos(t)

        results.append((_integrate_rows(f, rows, cuts.shape[1], lambda i, j: cuts[i:j],
                                       ABS_TOL), sizes))
    (plain_values, plain_sizes), (padded_values, padded_sizes) = results
    assert padded_sizes == plain_sizes
    np.testing.assert_array_equal(padded_values, plain_values)


def test_batch_constants_change_no_value(monkeypatch):
    # the engine's batch sizes bound its memory, not its results: with tiny
    # ones every integrand call and bisection block splits, the first block of
    # a batch's pieces too, yet each row keeps its nodes and its order of
    # summation
    table = Tabulated(0.0, 2.0, [1.0 - abs(1.0 - x) for x in np.linspace(0.0, 2.0, 17)])
    limit = limit_density_law(normal_model())
    cases = {
        "normal member": lambda: pdf_numeric(normal_model(), 4, np.linspace(-15.0, 15.0, 60)),
        "exp member": lambda: pdf_numeric(exponential_model(), 10, np.linspace(0.0, 600.0, 40)),
        "normal limit certificate": lambda: numerics.DensityCurve.from_function(
            limit.numeric, np.linspace(-4.0, 4.0, 5), limit.form.support()).norm_defect,
        "table with exp": lambda: LinearForm(FsrvModel(table, Exponential(1.0)), 3.0, 5.0).pdf(
            np.linspace(0.0, 40.0, 30)),
        "normal predictor": lambda: predict(joint_law(5, 2), normal_model(),
                                            np.linspace(-10.0, 10.0, 20)),
    }
    calls = []
    for cls in (Exponential, StandardNormal, Tabulated):
        def counted(self, x, pdf=cls.pdf):
            calls.append(np.size(x))
            return pdf(self, x)
        monkeypatch.setattr(cls, "pdf", counted)

    def run_all():
        del calls[:]
        values = {name: case() for name, case in cases.items()}
        return values, len(calls), sum(calls)

    wide = run_all()
    monkeypatch.setattr(numerics, "_BLOCK_PANELS", 4)
    blocks = run_all()
    assert blocks[1] > wide[1]  # the small blocks alone split the integrand calls
    assert blocks[2] == wide[2]  # but evaluate the same nodes
    monkeypatch.setattr(numerics, "_CHUNK_ELEMENTS", 128)
    narrow = run_all()
    assert narrow[1] > wide[1]  # the small batches split the integrand calls
    assert narrow[2] == wide[2]  # but evaluate the same nodes
    for name in cases:
        np.testing.assert_array_equal(blocks[0][name], wide[0][name], err_msg=name)
        np.testing.assert_array_equal(narrow[0][name], wide[0][name], err_msg=name)
