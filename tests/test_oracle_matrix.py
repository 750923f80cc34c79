"""Oracle matrix: every value the CLI prints with exit 0 lies within its
documented bound of a 50-digit mpmath re-derivation, and so does every value
of the closed limit cdfs that the KS distance reads.

The cells are routes x families x n x positions. The closed routes, `pdf
--method closed`, and `sums` and `limit` on the families that have a closed
form for them, must print within CLOSED_BOUND relative, at standardized
positions z = -6..6 and near the lower end of the support: for members and
partial sums at y = rate*x from 1e-10*c0 to 1e-3*c0, where c0*V0 + c1*V1 is
the form and c0 <= c1, and for the limit law from 1e-10 to 1e-3 above the
end of V0 + phi*V1 (and below its upper end on unif01). The numeric routes,
`pdf --method numeric`, and `sums` and `limit` on normal01, must exit 2 or 3
or print within NUMERIC_BOUND/sigma at z = -6..6, sigma the standard
deviation of the printed variable. `predict --k 2` on normal01 and exp:1 must
exit 2 or 3 or print within PREDICT_BOUND relative, at six even positions
from the lowest z in -3..3 where the member density is above DENSITY_FLOOR
(-3 if none is) to z = 3. The closed limit cdfs must read within
CLOSED_BOUND relative at the limit cells' positions. `moments` on five
families must exit 2 or print within MOMENTS_BOUND relative of its exact
rational value at every n from 2 to MAX_INDEX. The joint density of members
n and n+2 on normal01, exp:1 and unif01 must read within JOINT_BOUND
relative of an exact inversion of each double point: `joint_pdf` at points
mapped from fixed seed pairs, and `joint` through the command line at
n <= 10 on a grid whose seed coordinates lie inside the support. The oracles
below derive each law from the seeds' densities and use no closed function
of fsrv."""

import itertools
import json
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fsrv.cli import main
from fsrv.fib_core import MAX_INDEX
from fsrv.joint_predict import DENSITY_FLOOR, joint_law, joint_pdf
from fsrv.limits import cdf_limit_exponential_closed, cdf_limit_uniform_closed
from fsrv.marginal import FsrvModel
from fsrv.seeds import parse_seed_spec

#: Relative bound of every value a closed route prints, as README states it.
CLOSED_BOUND = 1e-13

#: Absolute bound of every value a numeric route prints, times the standard
#: deviation sigma of the printed variable, as README states it.
NUMERIC_BOUND = 1e-12

#: Relative bound of every value `predict` prints, as README states it.
PREDICT_BOUND = 1e-12

#: Relative bound of the mean and variance `moments` prints, as README states it.
MOMENTS_BOUND = 1e-15

#: Relative bound of every joint density value, ROADMAP item 13's target.
JOINT_BOUND = 1e-14

_FAMILIES = ("exp:1", "exp:1e150", "unif01", "normal01")
_NS = (2, 3, 5, 10, 19, 30, 60, 80)
_DIGITS = 50


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _seed_moments(family: str) -> tuple:
    """Mean and standard deviation of one seed, at 50 digits."""
    if family.startswith("exp:"):
        rate = mp.mpf(float(family[4:]))  # the double the CLI parses
        return 1 / rate, 1 / rate
    if family == "unif01":
        return mp.mpf(1) / 2, 1 / mp.sqrt(12)
    return mp.mpf(0), mp.mpf(1)


def _form_density(family: str, c0, c1, y):
    """Density of c0*V0 + c1*V1 at y for iid seeds of the family, c0 <= c1,
    each as the integral over V1 = v of f(v) * f((y - c1*v)/c0) / c0."""
    if family.startswith("exp:"):
        # unit-rate seeds at y = rate*x, times the rate: the integrand is
        # exp(-y/c0) * exp(-v*(1 - c1/c0)) / c0 on 0 <= v <= y/c1
        rate = 1 / _seed_moments(family)[0]
        y = rate * y
        if y <= 0:
            return mp.mpf(0)
        if c0 == c1:
            return rate * y * mp.exp(-y / c0) / (c0 * c0)
        return rate * (mp.exp(-y / c1) - mp.exp(-y / c0)) / (c1 - c0)
    if family == "unif01":
        # the length of the v in [0, 1] with 0 <= (y - c1*v)/c0 <= 1, over c0
        lo, hi = max(mp.mpf(0), (y - c0) / c1), min(mp.mpf(1), y / c1)
        return max(hi - lo, mp.mpf(0)) / c0
    variance = c0 * c0 + c1 * c1  # a normal linear form is normal
    return mp.exp(-y * y / (2 * variance)) / mp.sqrt(2 * mp.pi * variance)


def _printed(capsys, argv: list[str]) -> list[tuple[float, float]]:
    """(x, density) pairs the CLI prints, after it exits 0."""
    assert main([*argv, "--output", "json"]) == 0
    curve = json.loads(capsys.readouterr().out)
    return list(zip(curve["x"], curve["density"]))


def _check(pairs, oracle) -> None:
    for x, printed in pairs:
        want = oracle(mp.mpf(x))
        if want == 0:
            assert printed == 0, (x, printed)
        else:
            assert abs(mp.mpf(printed) / want - 1) <= CLOSED_BOUND, (x, printed, want)


def _z_grid(mean, sd) -> str:
    """The grid whose 13 points sit at z = -6..6 of the given moments."""
    return f"--grid={float(mean - 6 * sd)!r}:{float(mean + 6 * sd)!r}:13"


def _form_cells(capsys, route: list[str], family: str, c0: int, c1: int) -> None:
    with mp.workdps(_DIGITS):
        c0, c1 = mp.mpf(c0), mp.mpf(c1)
        mean, sd = _seed_moments(family)
        pairs = _printed(capsys, [*route, _z_grid((c0 + c1) * mean, mp.sqrt(c0**2 + c1**2) * sd)])
        scale = _seed_moments(family)[0] if family.startswith("exp:") else 1
        for low in (1e-10, 1e-8, 1e-6, 1e-4):  # y = rate*x at low*c0 and 10*low*c0
            ends = (float(low * c0 * scale), float(10 * low * c0 * scale))
            pairs += _printed(capsys, [*route, f"--grid={ends[0]!r}:{ends[1]!r}:2"])
        _check(pairs, lambda x: _form_density(family, c0, c1, x))


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("family", _FAMILIES)
def test_closed_member_densities_match_the_oracle(capsys, family, n):
    route = ["pdf", "--seeds", family, "--n", str(n), "--method", "closed"]
    _form_cells(capsys, route, family, _fib(n - 1), _fib(n))


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("family", ("exp:1", "exp:1e150"))
def test_closed_sum_densities_match_the_oracle(capsys, family, n):
    # S_n = sum of members 0..n = a_{n+1}*V0 + (a_{n+2} - 1)*V1
    _form_cells(capsys, ["sums", "--seeds", family, "--n", str(n)], family,
                _fib(n + 1), _fib(n + 2) - 1)


def _limit_cells(family: str):
    """phi, the mean and sd of V0 + phi*V1 on the family's seeds, and the
    standardized pairs of positions from c = 1e-10 to 1e-3 inside each end
    of its support where the density is 0; at 50 digits."""
    phi = (1 + mp.sqrt(5)) / 2
    mean, sd = _seed_moments(family)
    mean, sd = (1 + phi) * mean, mp.sqrt(1 + phi * phi) * sd
    ends = [(0, 1)] + ([(1 + phi, -1)] if family == "unif01" else [])
    pairs = [sorted(float((end + inward * c - mean) / sd) for c in (low, 10 * low))
             for (end, inward), low in itertools.product(ends, (1e-10, 1e-8, 1e-6, 1e-4))]
    return phi, mean, sd, pairs


@pytest.mark.parametrize("family", ("exp:1", "exp:1e150", "unif01"))
def test_closed_limit_densities_match_the_oracle(capsys, family):
    # Y is V0 + phi*V1 standardized, whatever the rate of exponential seeds
    with mp.workdps(_DIGITS):
        law = family if family == "unif01" else "exp:1"
        phi, mean, sd, ends = _limit_cells(law)
        route = ["limit", "--seeds", family]
        pairs = _printed(capsys, [*route, "--grid=-6:6:13"])
        for lo, hi in ends:
            pairs += _printed(capsys, [*route, f"--grid={lo!r}:{hi!r}:2"])
        _check(pairs, lambda z: sd * _form_density(law, mp.mpf(1), phi, mean + sd * z))


@pytest.mark.parametrize("family,cdf", [("exp:1", cdf_limit_exponential_closed),
                                        ("unif01", cdf_limit_uniform_closed)])
def test_closed_limit_cdfs_match_the_oracle(family, cdf):
    # Y's cdf at z is the mass of V0 + phi*V1 below c = mean + sd*z: the
    # oracle density's integral from 0 to c, cut where it kinks or ends
    with mp.workdps(_DIGITS):
        phi, mean, sd, ends = _limit_cells(family)
        cuts = (1, phi, 1 + phi) if family == "unif01" else ()

        def oracle(z):
            c = mean + sd * z
            return mp.quad(lambda v: _form_density(family, mp.mpf(1), phi, v),
                           [0, *(k for k in cuts if k < c), c]) if c > 0 else 0
        zs = [float(z) for z in range(-6, 7)] + [z for pair in ends for z in pair]
        _check([(z, cdf(z)) for z in zs], oracle)


def _check_numeric(capsys, argv: list[str], sigma, oracle) -> None:
    """A numeric cell passes if it exits 2 or 3, or if it exits 0 with every
    value within NUMERIC_BOUND/sigma of the oracle."""
    code = main([*argv, "--output", "json"])
    out = capsys.readouterr().out
    assert code in (0, 2, 3)
    if code == 0:
        curve = json.loads(out)
        for x, printed in zip(curve["x"], curve["density"]):
            want = oracle(mp.mpf(x))
            assert abs(printed - want) <= NUMERIC_BOUND / sigma, (x, printed, want)


def _numeric_form_cells():
    """(route, family, c0, c1) of each numeric member and partial-sum cell."""
    for family in ("exp:1", "exp:1e150", "normal01"):
        for n in _NS:
            yield pytest.param(["pdf", "--seeds", family, "--n", str(n), "--method", "numeric"],
                               family, _fib(n - 1), _fib(n), id=f"pdf-{family}-{n}")
    for n in _NS:  # S_n = a_{n+1}*V0 + (a_{n+2} - 1)*V1
        yield pytest.param(["sums", "--seeds", "normal01", "--n", str(n)], "normal01",
                           _fib(n + 1), _fib(n + 2) - 1, id=f"sums-normal01-{n}")


@pytest.mark.parametrize("route,family,c0,c1", list(_numeric_form_cells()))
def test_numeric_densities_match_the_oracle(capsys, route, family, c0, c1):
    with mp.workdps(_DIGITS):
        c0, c1 = mp.mpf(c0), mp.mpf(c1)
        mean, sd = _seed_moments(family)
        sigma = mp.sqrt(c0**2 + c1**2) * sd
        _check_numeric(capsys, [*route, _z_grid((c0 + c1) * mean, sigma)], sigma,
                       lambda x: _form_density(family, c0, c1, x))


def test_numeric_limit_density_matches_the_oracle(capsys):
    # Y is (V0 + phi*V1) / sqrt(1 + phi^2) on normal01 seeds, of standard deviation 1
    with mp.workdps(_DIGITS):
        phi = (1 + mp.sqrt(5)) / 2
        sd = mp.sqrt(1 + phi * phi)
        _check_numeric(capsys, ["limit", "--seeds", "normal01", "--grid=-6:6:13"], 1,
                       lambda z: sd * _form_density("normal01", mp.mpf(1), phi, sd * z))


def _conditional_mean(family: str, n: int, x):
    """E[member n+2 | member n = x] at 50 digits: normal01's linear
    predictor, or on exp:1 the mean of d0*V0 + d1*V1 over the slice
    c0*V0 + c1*V1 = x, integrated over V1 = v in [0, x/c1], where the seeds'
    joint density is exp(-x/c0) * exp(v*(c1/c0 - 1))."""
    c0, c1, d0, d1 = (mp.mpf(_fib(i)) for i in (n - 1, n, n + 1, n + 2))
    if family == "normal01":
        return x * (c0 * d0 + c1 * d1) / (c0 * c0 + c1 * c1)
    top = x / c1
    weight = lambda v: mp.exp((c1 / c0 - 1) * (v - top))  # at most 1
    moment = mp.quad(lambda v: (d0 * (x - c1 * v) / c0 + d1 * v) * weight(v), [0, top])
    return moment / mp.quad(weight, [0, top])


#: The predict cells that print values outside PREDICT_BOUND with exit 0.
_PREDICT_DEFECTS = {("normal01", 12): 5.0e-12, ("normal01", 13): 9.6e-12,
                    ("normal01", 14): 1.1e-11, ("normal01", 15): 2.4e-11,
                    ("normal01", 16): 1.7e-10, ("normal01", 17): 4.8e-10,
                    ("normal01", 18): 1.8e-9, ("normal01", 19): 3.5e-9, ("normal01", 30): 7.9e-4,
                    ("normal01", 35): 2.6e-2, ("exp:1", 18): 1.7e-10, ("exp:1", 30): 1.6e-4,
                    ("exp:1", 35): 2.0e-2}


def _predict_cells():
    ns = (2, 3, 5, 10, *range(12, 20), 25, 30, 35, 40, 60)
    for family, n in itertools.product(("normal01", "exp:1"), ns):
        marks = []
        if (family, n) in _PREDICT_DEFECTS:
            marks.append(pytest.mark.xfail(strict=True, reason=(
                f"known defect, ROADMAP item 8: predict prints values up to "
                f"{_PREDICT_DEFECTS[family, n]:.1e} relative off with exit 0")))
        yield pytest.param(family, n, marks=marks, id=f"{family}-{n}")


@pytest.mark.parametrize("family,n", list(_predict_cells()))
def test_predict_matches_the_oracle(capsys, family, n):
    with mp.workdps(_DIGITS):
        c0, c1 = mp.mpf(_fib(n - 1)), mp.mpf(_fib(n))
        mean, sd = _seed_moments(family)
        mean, sd = (c0 + c1) * mean, mp.sqrt(c0 * c0 + c1 * c1) * sd
        lowest = next((z for z in range(-3, 4)
                       if _form_density(family, c0, c1, mean + z * sd) > DENSITY_FLOOR), -3)
        code = main(["predict", "--seeds", family, "--n", str(n), "--k", "2", "--output", "json",
                     f"--grid={float(mean + lowest * sd)!r}:{float(mean + 3 * sd)!r}:6"])
        out = capsys.readouterr().out
        assert code in (0, 2, 3)
        if code == 0:
            curve = json.loads(out)
            for x, printed in zip(curve["x"], curve["predicted"]):
                want = _conditional_mean(family, n, mp.mpf(x))
                assert abs(mp.mpf(printed) / want - 1) <= PREDICT_BOUND, (x, printed, want)


def _exact_seed_moments(family: str) -> tuple[Fraction, Fraction]:
    """Mean and variance of one seed as exact rationals of the double rate
    the CLI parses."""
    if family.startswith("exp:"):
        rate = Fraction(float(family[4:]))
        return 1 / rate, 1 / rate**2
    if family == "unif01":
        return Fraction(1, 2), Fraction(1, 12)
    return Fraction(0), Fraction(1)


@pytest.mark.parametrize("family", ("exp:1", "exp:1e150", "exp:1e-150", "unif01", "normal01"))
def test_moments_match_the_exact_oracle(capsys, family):
    # member n = a_{n-1}*V0 + a_n*V1 has mean a_{n+1}*m and variance
    # (a_{n-1}^2 + a_n^2)*v; exp:1e-150 exits 2 where its variance overflows
    m, v = _exact_seed_moments(family)
    for n in range(2, MAX_INDEX + 1):
        code = main(["moments", "--seeds", family, "--n", str(n), "--output", "json"])
        out = capsys.readouterr().out
        assert code in (0, 2), n
        if code == 0:
            doc = json.loads(out)
            for printed, want in ((doc["mean"], _fib(n + 1) * m),
                                  (doc["variance"], (_fib(n - 1)**2 + _fib(n)**2) * v)):
                if want == 0:
                    assert printed == 0, (n, printed)
                else:
                    assert abs(Fraction(printed) / want - 1) <= MOMENTS_BOUND, (n, printed, want)


#: The seed coordinates of a double point must lie at least this far from a
#: support end for its joint cell to count: there the density jumps, and the
#: point's side of the end decides its value.
_EDGE = 1e-9


def _seed_density(family: str, v):
    """Density of one normal01, exp:1 or unif01 seed at the mpf v."""
    if family == "normal01":
        return mp.exp(-v * v / 2) / mp.sqrt(2 * mp.pi)
    if family == "exp:1":
        return mp.exp(-v) if v >= 0 else mp.mpf(0)
    return mp.mpf(1) if 0 <= v <= 1 else mp.mpf(0)


def _joint_oracle(family: str, n: int, y0: float, y1: float):
    """Joint density of members n and n+2 at the double point (y0, y1), at 50
    digits: its seed coordinates by an exact inversion in fractions, then
    the seed densities there over |Jacobian|; None where a coordinate lies
    within _EDGE of a support end."""
    c0, c1, d0, d1 = (_fib(i) for i in (n - 1, n, n + 1, n + 2))
    jac = c0 * d1 - c1 * d0
    y0, y1 = Fraction(y0), Fraction(y1)
    coordinates = ((d1 * y0 - c1 * y1) / jac, (c0 * y1 - d0 * y0) / jac)
    ends = {"normal01": (), "exp:1": (0,), "unif01": (0, 1)}[family]
    if any(abs(v - end) < _EDGE for v in coordinates for end in ends):
        return None
    with mp.workdps(_DIGITS):
        density = mp.mpf(1) / abs(jac)
        for v in coordinates:
            density *= _seed_density(family, mp.mpf(v.numerator) / v.denominator)
        return density


def _joint_error(family: str, n: int, y0: float, y1: float, printed: float) -> float:
    """|printed - oracle| over the oracle, or over the least normal double
    if the oracle is below it; 0 where the oracle is None."""
    want = _joint_oracle(family, n, y0, y1)
    if want is None:
        return 0.0
    return float(abs(printed - want) / max(want, sys.float_info.min))


def _check_joint(family: str, n: int, points) -> None:
    """Each (y0, y1, printed) within JOINT_BOUND of the oracle, as _joint_error
    measures it."""
    for y0, y1, printed in points:
        assert _joint_error(family, n, y0, y1, printed) <= JOINT_BOUND, (y0, y1, printed)


def _joint_cells(ns, defects: dict):
    for family, n in itertools.product(("normal01", "exp:1", "unif01"), ns):
        marks = []
        if (family, n) in defects:
            marks.append(pytest.mark.xfail(strict=True, reason=(
                f"known defect, ROADMAP item 13: joint values reach an error of "
                f"{defects[family, n]:.1e} relative")))
        yield pytest.param(family, n, marks=marks, id=f"{family}-{n}")


#: The joint_pdf cells outside JOINT_BOUND, with their largest _joint_error.
#: From n = 40 on the exact coordinates of most double points lie far from
#: the seed pair they were mapped from, often outside the support, where
#: joint_pdf still prints positive values (errors near 1e307).
_JOINT_DEFECTS = {
    **{("normal01", n): e for n, e in ((5, 4.8e-14), (10, 3.7e-12), (19, 2.4e-8), (30, 8.7e-4),
                                       (40, 5.7e14), (60, 7.2e306), (75, 7.2e306))},
    **{("exp:1", n): e for n, e in ((5, 3.9e-14), (10, 6.4e-12), (19, 3.3e-8), (30, 1.0e-3),
                                    (40, 4.5e307), (60, 4.5e307), (75, 4.5e307))},
    **{("unif01", n): 4.5e307 for n in (40, 60, 75)},
}


@pytest.mark.parametrize("family,n", list(_joint_cells((2, 3, 5, 10, 19, 30, 40, 60, 75),
                                                       _JOINT_DEFECTS)))
def test_joint_pdf_matches_the_oracle(family, n):
    # the double points nearest the images of 200 fixed seed pairs
    c0, c1, d0, d1 = (_fib(i) for i in (n - 1, n, n + 1, n + 2))
    rng = np.random.default_rng(20261022)
    pairs = {"normal01": rng.standard_normal, "exp:1": rng.standard_exponential,
             "unif01": rng.random}[family]((200, 2)).tolist()
    y0 = np.array([float(c0 * Fraction(v0) + c1 * Fraction(v1)) for v0, v1 in pairs])
    y1 = np.array([float(d0 * Fraction(v0) + d1 * Fraction(v1)) for v0, v1 in pairs])
    seed = parse_seed_spec(family)
    printed = joint_pdf(joint_law(n, 2), FsrvModel(seed, seed), y0, y1)
    _check_joint(family, n, zip(y0.tolist(), y1.tolist(), printed.tolist()))


#: Per family, the centre and the radius of the box of seed coordinates that
#: the joint CLI cells' grids cover, inside the support.
_JOINT_BOXES = {"normal01": ((0.5, -0.25), 2.0), "exp:1": ((1.5, 0.75), 0.5),
                "unif01": ((0.625, 0.4375), 0.25)}


@pytest.mark.parametrize("family,n", list(_joint_cells(
    (2, 3, 5, 10), {("normal01", 10): 7.1e-14, ("exp:1", 5): 2.0e-14, ("exp:1", 10): 1.6e-12})))
def test_joint_command_matches_the_oracle(capsys, family, n):
    # a 5 x 5 grid about the image of the box's centre, with half-widths
    # r*a_2/(2*a_{n+2}) and r*a_2/(2*a_n): both seed coordinates of each of
    # its points lie within r of the centre's
    (v0, v1), r = _JOINT_BOXES[family]
    c0, c1, d0, d1 = (_fib(i) for i in (n - 1, n, n + 1, n + 2))
    y0, y1, h0, h1 = c0 * v0 + c1 * v1, d0 * v0 + d1 * v1, r / (2 * d1), r / (2 * c1)
    assert main(["joint", "--seeds", family, "--n", str(n), "--k", "2", "--output", "json",
                 f"--grid0={y0 - h0!r}:{y0 + h0!r}:5", f"--grid1={y1 - h1!r}:{y1 + h1!r}:5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _check_joint(family, n, ((a, b, printed) for a, row in zip(doc["y0"], doc["density"])
                             for b, printed in zip(doc["y1"], row)))
