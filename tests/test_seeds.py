import math

import numpy as np
import pytest

from fsrv.errors import DomainError
from fsrv.marginal import FsrvModel
from fsrv.numerics import integrate
from fsrv.seeds import (
    Exponential,
    StandardNormal,
    TabulatedPdf,
    UniformUnit,
    parse_seed_spec,
    tabulated_from_csv,
)
from fsrv.simulate import SimulationConfig, run_simulation

ALL_KINDS = [Exponential(1.0), Exponential(2.5), UniformUnit(), StandardNormal()]


def test_pdf_point_values():
    assert Exponential(1.0).pdf(0.0) == 1.0
    assert UniformUnit().pdf(0.5) == 1.0
    # 1/sqrt(2*pi), computed independently
    assert abs(StandardNormal().pdf(0.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    assert abs(StandardNormal().pdf(0.0) - 0.3989422804) < 1e-9


def test_moments():
    assert Exponential(1.0).moments() == (1.0, 1.0)
    assert UniformUnit().moments() == (0.5, 1.0 / 12.0)
    assert StandardNormal().moments() == (0.0, 1.0)
    mean, var = Exponential(4.0).moments()
    assert mean == 0.25 and var == 0.0625


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_pdf_nonnegative_and_normalized(dist):
    lo, hi = dist.effective_support()
    xs = np.linspace(lo, hi, 400)
    assert all(dist.pdf(float(x)) >= 0.0 for x in xs)
    assert abs(integrate(dist.pdf, lo, hi) - 1.0) < 1e-9


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_cdf_monotone_and_endpoint_anchored(dist):
    lo, hi = dist.effective_support()
    xs = np.linspace(lo, hi, 300)
    vals = [dist.cdf(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert dist.cdf(lo) < 1e-9
    assert abs(dist.cdf(hi) - 1.0) < 1e-9


def seed_pairs(dist, rng_seed: int, n_paths: int) -> np.ndarray:
    """Seed draws of the block sampler that simulation uses."""
    config = SimulationConfig(rng_seed=rng_seed, n_paths=n_paths, horizon=2,
                              model=FsrvModel(dist, dist))
    return run_simulation(config).seed_pairs


def test_exponential_golden_first_draw():
    # pinned generator, captured once and frozen
    assert tuple(seed_pairs(Exponential(1.0), 42, 1)[0]) == (1.715899855890263,
                                                             2.0223870679065734)


def test_uniform_golden_first_draw_and_range():
    pair = seed_pairs(UniformUnit(), 42, 1)[0]
    assert tuple(pair) == (0.8201981478608876, 0.8676608148821462)
    assert np.all((0.0 <= pair) & (pair < 1.0))


def test_normal_golden_first_draw():
    assert tuple(seed_pairs(StandardNormal(), 42, 1)[0]) == (0.6901114401823835,
                                                             -1.5858830335039964)


@pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec_string())
def test_sampler_matches_moments(dist):
    n = 10**5
    mean, var = dist.moments()
    # standard-error bounds; fourth central moments by family
    m4 = {"exponential": 9.0 * var * var,
          "uniform_unit": 1.0 / 80.0,
          "standard_normal": 3.0}[dist.kind]
    for draws in seed_pairs(dist, 314, n).T:
        assert abs(float(np.mean(draws)) - mean) <= 4.0 * math.sqrt(var / n)
        assert abs(float(np.var(draws)) - var) <= 4.0 * math.sqrt((m4 - var * var) / n)


def test_tabulated_triangle_moments_exact(triangle_seed):
    mean, var = triangle_seed.moments()
    assert abs(mean - 1.0) < 1e-12
    assert abs(var - 1.0 / 6.0) < 1e-12


def test_tabulated_triangle_sampling(triangle_seed):
    for draws in seed_pairs(triangle_seed, 99, 10**6).T:
        assert draws.min() >= 0.0 and draws.max() <= 2.0
        # 7 standard errors with sigma^2 = 1/6
        assert abs(float(np.mean(draws)) - 1.0) <= 0.003


def test_tabulated_pdf_cdf_consistency(triangle_seed):
    assert triangle_seed.pdf(1.0) == 1.0
    assert triangle_seed.pdf(-0.1) == 0.0
    assert triangle_seed.pdf(2.1) == 0.0
    assert triangle_seed.cdf(0.0) == 0.0
    assert triangle_seed.cdf(2.0) == 1.0
    assert abs(triangle_seed.cdf(1.0) - 0.5) < 1e-12
    for x in (0.3, 0.9, 1.4):
        quad = integrate(triangle_seed.pdf, 0.0, x)
        assert abs(quad - triangle_seed.cdf(x)) < 1e-9


def test_tabulated_validation():
    with pytest.raises(DomainError):
        TabulatedPdf(0.0, 1.0, np.ones(8))  # too few nodes
    with pytest.raises(DomainError):
        TabulatedPdf(1.0, 0.0, np.ones(20))  # inverted support
    with pytest.raises(DomainError):
        TabulatedPdf(0.0, 1.0, -np.ones(20))  # negative density
    with pytest.raises(DomainError):
        TabulatedPdf(0.0, 1.0, np.zeros(20))  # zero mass


def test_tabulated_from_csv_roundtrip(tmp_path, triangle_seed):
    path = tmp_path / "triangle.csv"
    xs = np.linspace(0.0, 2.0, 17)
    lines = ["x,density"] + [f"{x},{triangle_seed.pdf(float(x))}" for x in xs]
    path.write_text("\n".join(lines) + "\n")
    loaded = tabulated_from_csv(path)
    for x in (0.0, 0.25, 1.0, 1.75):
        assert abs(loaded.pdf(x) - triangle_seed.pdf(x)) < 1e-12


def test_tabulated_from_csv_headerless(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("\n".join(f"{x},1.0" for x in np.linspace(0, 1, 21)) + "\n")
    seed = tabulated_from_csv(path)
    assert abs(seed.pdf(0.5) - 1.0) < 1e-12


def test_tabulated_from_csv_rejects_bad_input(tmp_path):
    few = tmp_path / "few.csv"
    few.write_text("0,1\n1,1\n")
    with pytest.raises(DomainError, match="16"):
        tabulated_from_csv(few)
    uneven = tmp_path / "uneven.csv"
    xs = list(np.linspace(0, 1, 20))
    xs[10] += 0.01
    uneven.write_text("\n".join(f"{x},1.0" for x in xs) + "\n")
    with pytest.raises(DomainError, match="evenly spaced"):
        tabulated_from_csv(uneven)
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("x,density\n" + "\n".join(f"{x},1.0" for x in np.linspace(0, 1, 20))
                       + "\noops,1.0\n")
    with pytest.raises(DomainError, match="not numeric"):
        tabulated_from_csv(garbage)


def test_parse_seed_spec():
    assert isinstance(parse_seed_spec("unif01"), UniformUnit)
    assert isinstance(parse_seed_spec("normal01"), StandardNormal)
    exp = parse_seed_spec("exp:2.5")
    assert isinstance(exp, Exponential) and exp.rate == 2.5
    with pytest.raises(DomainError):
        parse_seed_spec("exp:zero")
    with pytest.raises(DomainError):
        parse_seed_spec("cauchy")
    with pytest.raises(DomainError):
        parse_seed_spec("exp:-1")


def test_exponential_rate_validation():
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        Exponential(-2.0)
