import math

import numpy as np
import pytest

from fsrv.errors import DomainError
from fsrv.fib_core import fib
from fsrv.marginal import FsrvModel, member_form
from fsrv.numerics import integrate, line_points
from fsrv.seeds import (
    Exponential,
    SeedDistribution,
    StandardNormal,
    Tabulated,
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


def test_exponential_rate_needs_finite_positive_variance():
    # moments() returns 1/rate**2, which overflows, underflows or vanishes
    for rate in (math.inf, 1e-200, 1e200, 0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            Exponential(rate)
    for rate in (1e-150, 1e150):
        mean, var = Exponential(rate).moments()
        assert 0.0 < var < math.inf and mean == 1.0 / rate


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
    m4 = {Exponential: 9.0 * var * var,
          UniformUnit: 1.0 / 80.0,
          StandardNormal: 3.0}[type(dist)]
    for draws in seed_pairs(dist, 314, n).T:
        assert abs(float(np.mean(draws)) - mean) <= 4.0 * math.sqrt(var / n)
        assert abs(float(np.var(draws)) - var) <= 4.0 * math.sqrt((m4 - var * var) / n)


def test_tabulated_triangle_moments_exact(triangle_seed):
    mean, var = triangle_seed.moments()
    assert abs(mean - 1.0) < 1e-12
    assert abs(var - 1.0 / 6.0) < 1e-12


def test_tabulated_moments_keep_their_variance_far_from_zero():
    # E[x^2] - mean^2 in absolute coordinates cancelled to 43% too high here
    width = 1e-3
    flat = Tabulated(1e4, 1e4 + width, np.ones(16))
    _, variance = member_form(FsrvModel(flat, flat), 3).moments()
    exact = (fib(2) ** 2 + fib(3) ** 2) * width**2 / 12.0
    assert abs(variance - exact) <= 1e-6 * exact


def test_tabulated_triangle_sampling(triangle_seed):
    for draws in seed_pairs(triangle_seed, 99, 10**6).T:
        assert draws.min() >= 0.0 and draws.max() <= 2.0
        # 7 standard errors with sigma^2 = 1/6
        assert abs(float(np.mean(draws)) - 1.0) <= 0.003


def test_tabulated_pdf_cdf_consistency(triangle_seed):
    assert triangle_seed.pdf(1.0) == 1.0
    assert triangle_seed.pdf(-0.1) == 0.0
    assert triangle_seed.pdf(2.1) == 0.0
    # the node cdf the sampler inverts is the pdf's integral up to each node
    node_cdf = triangle_seed.node_cdf
    assert node_cdf[0] == 0.0
    assert abs(node_cdf[-1] - 1.0) < 1e-15
    assert abs(node_cdf[8] - 0.5) < 1e-15  # the apex at x = 1
    for i in (2, 7, 11):
        quad = integrate(triangle_seed.pdf, 0.0, triangle_seed.lo + i * triangle_seed.step)
        assert abs(quad - node_cdf[i]) < 1e-9


def test_tabulated_validation():
    with pytest.raises(DomainError):
        Tabulated(0.0, 1.0, np.ones(8))  # too few nodes
    with pytest.raises(DomainError):
        Tabulated(1.0, 0.0, np.ones(20))  # inverted support
    with pytest.raises(DomainError):
        Tabulated(0.0, 1.0, -np.ones(20))  # negative density
    with pytest.raises(DomainError):
        Tabulated(0.0, 1.0, np.zeros(20))  # zero mass


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


def test_tabulated_from_csv_finds_the_header_after_blank_lines(tmp_path):
    path = tmp_path / "blank_first.csv"
    xs = np.linspace(0, 1, 21)
    path.write_text("\n  ,\nx,density\n" + "\n".join(f"{x},1.0" for x in xs) + "\n")
    seed = tabulated_from_csv(path)
    np.testing.assert_array_equal(seed.grid, xs)
    assert abs(seed.pdf(0.5) - 1.0) < 1e-12


# even grids as files write them: shortest round-trip decimals of a
# linspace far from 0, 10 significant digits, and x0 + k*h
_ROUNDED_GRIDS = {
    "narrow_1e4": [repr(float(x)) for x in np.linspace(1e4, 1e4 + 1e-8, 31)],
    "narrow_1e6": [repr(float(x)) for x in np.linspace(1e6, 1e6 + 1e-3, 31)],
    "ten_digits": [f"{x:.10g}" for x in np.linspace(0.0, 2.0, 31)],
    "x0_plus_kh": [repr(1.0 + k * (0.1 / 3.0)) for k in range(40)],
}


@pytest.mark.parametrize("grid", _ROUNDED_GRIDS)
def test_tabulated_from_csv_accepts_rounded_even_grids(tmp_path, grid):
    xs = _ROUNDED_GRIDS[grid]
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(f"{x},1.0" for x in xs) + "\n")
    seed = tabulated_from_csv(path)
    assert (seed.lo, seed.hi, seed.nodes.size) == (float(xs[0]), float(xs[-1]), len(xs))


def test_tabulated_from_csv_rejects_bad_input(tmp_path):
    few = tmp_path / "few.csv"
    few.write_text("0,1\n1,1\n")
    with pytest.raises(DomainError, match="16"):
        tabulated_from_csv(few)
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("\n".join(f"{x},1.0" for x in np.linspace(0, 1, 20)) + "\n0.5\n")
    with pytest.raises(DomainError, match="row 21 has fewer than 2 columns"):
        tabulated_from_csv(narrow)
    backwards = tmp_path / "backwards.csv"
    backwards.write_text("\n".join(f"{x},1.0" for x in np.linspace(1, 0, 20)) + "\n")
    with pytest.raises(DomainError, match="strictly increasing"):
        tabulated_from_csv(backwards)
    uneven = tmp_path / "uneven.csv"
    xs = list(np.linspace(0, 1, 20))
    xs[10] += 0.01
    uneven.write_text("\n".join(f"{x},1.0" for x in xs) + "\n")
    with pytest.raises(DomainError, match="evenly spaced"):
        tabulated_from_csv(uneven)
    # steps alternating 1e-10 and 5e-10: within an absolute 1e-9 of each
    # other, but Tabulated would put node 1 at 3e-10, not at 1e-10
    tiny = tmp_path / "tiny.csv"
    xs = np.cumsum([0.0] + [1e-10, 5e-10] * 8)
    tiny.write_text("\n".join(f"{float(x)!r},1.0" for x in xs) + "\n")
    with pytest.raises(DomainError, match="evenly spaced"):
        tabulated_from_csv(tiny)
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("x,density\n" + "\n".join(f"{x},1.0" for x in np.linspace(0, 1, 20))
                       + "\noops,1.0\n")
    with pytest.raises(DomainError, match="not numeric"):
        tabulated_from_csv(garbage)


class _Box(SeedDistribution):
    def support(self):
        return -1.0, 2.0


def test_a_bounded_seed_inherits_its_support_as_its_window():
    assert _Box().effective_support() == (-1.0, 2.0)


def test_line_points_are_the_support_ends_and_the_kinks(triangle_seed):
    np.testing.assert_array_equal(line_points(triangle_seed, triangle_seed)[0], triangle_seed.grid)
    e, z = Exponential(1.0), StandardNormal()
    e_hi, (z_lo, z_hi) = e.effective_support()[1], z.effective_support()
    cases = [
        # V0 = 0 ends one side of every line, V1 = 0 the other
        ((e, e), ([0.0, math.inf], [0.0, math.inf])),
        # no true end is finite, so both sides take the effective ends
        ((z, z), ([z_lo, z_hi], [z_lo, z_hi])),
        # the exponential's 0 ends one side; the other side has two infinite
        # true ends, the normal's lower one and the exponential's upper one
        ((z, e), ([z_lo, math.inf], [0.0, e_hi])),
        ((e, z), ([0.0, e_hi], [z_lo, math.inf])),
        ((_Box(), UniformUnit()), ([-1.0, 2.0], [0.0, 1.0])),
    ]
    for pair, expected in cases:
        assert tuple(points.tolist() for points in line_points(*pair)) == expected, pair


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


@pytest.mark.parametrize("rate", [1.0, 2.5, 1.23456789, 1e-7])
def test_exponential_spec_string_round_trips(rate):
    # simulate reports spec_string() as the law that ran, so it must read back
    spec = Exponential(rate).spec_string()
    assert parse_seed_spec(spec).rate == rate
    if rate in (1.0, 2.5):
        assert spec == f"exp:{rate:g}"


def test_exponential_rate_validation():
    with pytest.raises(DomainError):
        Exponential(0.0)
    with pytest.raises(DomainError):
        Exponential(-2.0)
