"""Independent oracles for every benchmark op.

Nothing here calls into `fsrv`: closed forms are re-derived from the seed
laws, tabulated seeds are checked with `scipy.integrate.quad` split at the
seed kinks, and simulation outputs are checked against exact moments and the
closed limit cdf. scipy is imported lazily, after the timed passes, so it
does not inflate the measured peak memory.
"""

import json
import math
import random
from dataclasses import dataclass

import numpy as np

PHI = (1.0 + math.sqrt(5.0)) / 2.0

#: Sup-norm tolerance of acceptance criteria 02 and 05.
SUP_TOL = 1e-6
NORM_DEFECT_LIMIT = 1e-6
KS_LIMIT = 0.01
#: Simulated means must lie within this many standard errors.
MEAN_SE_LIMIT = 6.0
#: Grid points compared with scipy quadrature per tabulated-seed op.
QUAD_SAMPLES = 5


class OracleFailure(Exception):
    """An op's output disagrees with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def fib(n: int) -> int:
    """a_n with a_{-1} = 1, a_0 = 0, so member n is a_{n-1}*V0 + a_n*V1."""
    prev, cur = 1, 0
    for _ in range(n):
        prev, cur = cur, prev + cur
    return cur if n >= 0 else 1


def member_coeffs(n: int) -> tuple[int, int]:
    return (1, 0) if n == 0 else (fib(n - 1), fib(n))


def sum_coeffs(n: int) -> tuple[int, int]:
    return fib(n + 1), fib(n + 2) - 1


# ----------------------------------------------------------------- seed laws

@dataclass
class Seed:
    """One seed family as the oracle sees it. Tabulated seeds carry their
    nodes, with the density rescaled to unit trapezoid mass."""

    family: str  # "exp", "unif", "normal" or "table"
    rate: float = 1.0
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    @property
    def moments(self) -> tuple[float, float]:
        if self.family == "exp":
            return 1.0 / self.rate, 1.0 / self.rate**2
        if self.family == "unif":
            return 0.5, 1.0 / 12.0
        if self.family == "normal":
            return 0.0, 1.0
        mean = _trapz_moment(self.xs, self.ys, 1)
        return mean, _trapz_moment(self.xs, self.ys, 2) - mean * mean

    def pdf(self, x: float) -> float:
        return float(self.pdf_many(x))

    def pdf_many(self, v: np.ndarray) -> np.ndarray:
        if self.family == "table":
            return np.interp(v, self.xs, self.ys, left=0.0, right=0.0)
        if self.family == "unif":
            return np.where((v >= 0.0) & (v <= 1.0), 1.0, 0.0)
        if self.family == "exp":
            return np.where(v < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(v, 0.0)))
        return np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)


def table_seed(xs, ys) -> Seed:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return Seed("table", xs=xs, ys=ys / np.trapezoid(ys, xs))


def _trapz_moment(xs: np.ndarray, ys: np.ndarray, k: int) -> float:
    """Exact k-th moment of the piecewise-linear interpolant, by Gauss-
    Legendre on each panel (the integrand is a polynomial of degree k+1)."""
    nodes, weights = np.polynomial.legendre.leggauss(3)
    total = 0.0
    for i in range(xs.size - 1):
        a, b = xs[i], xs[i + 1]
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        f = ys[i] + (ys[i + 1] - ys[i]) * (t - a) / (b - a)
        total += 0.5 * (b - a) * float(np.sum(weights * t**k * f))
    return total


@dataclass(frozen=True)
class Form:
    """Z = (c0*V0 + c1*V1 - shift) / scale for iid seeds V0, V1."""

    c0: float
    c1: float
    shift: float = 0.0
    scale: float = 1.0


def member_form(n: int) -> Form:
    return Form(*map(float, member_coeffs(n)))


def sum_form(n: int) -> Form:
    return Form(*map(float, sum_coeffs(n)))


def limit_form(seed: Seed) -> Form:
    mean, var = seed.moments
    return Form(1.0, PHI, mean * (1.0 + PHI), math.sqrt(var * (1.0 + PHI * PHI)))


def closed_density(seed: Seed, form: Form, xs: np.ndarray) -> np.ndarray:
    """Density of the form on xs for exp, unif and normal seeds."""
    y = form.scale * np.asarray(xs, dtype=np.float64) + form.shift
    c0, c1 = form.c0, form.c1
    if seed.family == "normal":
        var = c0 * c0 + c1 * c1
        g = np.exp(-0.5 * y * y / var) / math.sqrt(2.0 * math.pi * var)
    elif seed.family == "exp":
        l0, l1 = seed.rate / c0, seed.rate / c1
        yp = np.maximum(y, 0.0)
        if l0 == l1:
            g = l0 * l0 * yp * np.exp(-l0 * yp)
        else:
            g = l0 * l1 / (l1 - l0) * (np.exp(-l0 * yp) - np.exp(-l1 * yp))
        g = np.where(y < 0.0, 0.0, g)
    elif seed.family == "unif":
        a, b = min(c0, c1), max(c0, c1)
        g = np.select([y < 0.0, y < a, y <= b, y <= a + b],
                      [0.0, y / (a * b), 1.0 / b, (a + b - y) / (a * b)], default=0.0)
    else:
        raise ValueError(f"no closed form for {seed.family}")
    return form.scale * g


def quad_density(seed: Seed, form: Form, x: float) -> float:
    """Density of the form at x for a tabulated seed, by scipy quadrature of
    the convolution integral with the seed kinks passed as break points."""
    from scipy.integrate import quad

    xs = seed.xs
    y = form.scale * x + form.shift
    c0, c1 = form.c0, form.c1
    lo = max(c1 * xs[0], y - c0 * xs[-1])
    hi = min(c1 * xs[-1], y - c0 * xs[0])
    if lo >= hi:
        return 0.0
    kinks = np.concatenate([y - c0 * xs, c1 * xs])
    kinks = np.unique(kinks[(kinks > lo) & (kinks < hi)])
    value, _ = quad(lambda t: seed.pdf((y - t) / c0) * seed.pdf(t / c1), lo, hi,
                    points=kinks, limit=4 * kinks.size + 50, epsabs=1e-12, epsrel=1e-12)
    return form.scale * value / (c0 * c1)


def quad_predict(seed: Seed, n: int, k: int, x: float) -> float:
    """E[member n+k | member n = x] for a tabulated seed, by scipy
    quadrature over V1 along the conditioning line."""
    from scipy.integrate import quad

    xs = seed.xs
    c0, c1 = member_coeffs(n)
    c2, c3 = member_coeffs(n + k)
    lo = max(xs[0], (x - c0 * xs[-1]) / c1)
    hi = min(xs[-1], (x - c0 * xs[0]) / c1)
    kinks = np.concatenate([xs, (x - c0 * xs) / c1])
    kinks = np.unique(kinks[(kinks > lo) & (kinks < hi)])

    def weight(t):
        return seed.pdf((x - c1 * t) / c0) * seed.pdf(t)

    opts = dict(points=kinks, limit=4 * kinks.size + 50, epsabs=1e-13, epsrel=1e-13)
    mass, _ = quad(weight, lo, hi, **opts)
    moment, _ = quad(lambda t: (c2 * (x - c1 * t) / c0 + c3 * t) * weight(t), lo, hi, **opts)
    return moment / mass


# ------------------------------------------------------------ output parsing

def parse_csv(text: str) -> tuple[list[str], np.ndarray, dict]:
    """Header, numeric rows and '# key=value' trailers of a CLI CSV table."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    trailers = {}
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            trailers[key] = float(value)
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return header, np.array(rows, dtype=np.float64).reshape(len(rows), len(header)), trailers


def parse_curve(text: str, fmt: str, y_key: str) -> tuple[np.ndarray, np.ndarray, float | None]:
    """(x, y, norm_defect) from a density or prediction curve."""
    if fmt == "json":
        doc = json.loads(text)
        return (np.array(doc["x"], dtype=np.float64), np.array(doc[y_key], dtype=np.float64),
                doc.get("norm_defect"))
    header, rows, trailers = parse_csv(text)
    require(header == ["x", y_key], f"unexpected CSV header {header}")
    return rows[:, 0], rows[:, 1], trailers.get("norm_defect")


def check_grid(xs: np.ndarray, grid: tuple[float, float, int]) -> None:
    lo, hi, points = grid
    require(xs.size == points, f"{xs.size} grid values, expected {points}")
    expected = np.linspace(lo, hi, points)
    require(np.allclose(xs, expected, rtol=0.0, atol=1e-12 * max(abs(lo), abs(hi), 1.0)),
            "grid abscissae differ from the requested grid")


def check_norm_defect(defect) -> None:
    require(defect is not None, "no norm_defect reported")
    require(defect <= NORM_DEFECT_LIMIT, f"norm_defect {defect:.3e} > {NORM_DEFECT_LIMIT:.0e}")


def sample_indices(rng: random.Random, points: int) -> list[int]:
    return sorted(rng.sample(range(points), min(QUAD_SAMPLES, points)))


def check_density(text: str, fmt: str, grid, seed: Seed, form: Form, rng: random.Random) -> None:
    """Grid, certificate and values of a `pdf`/`limit`/`sums` output."""
    xs, ys, defect = parse_curve(text, fmt, "density")
    check_grid(xs, grid)
    check_norm_defect(defect)
    require(bool(np.all(np.isfinite(ys)) and np.all(ys >= 0.0)), "density not finite and >= 0")
    if seed.family == "table":
        for i in sample_indices(rng, xs.size):
            want = quad_density(seed, form, float(xs[i]))
            require(abs(ys[i] - want) <= SUP_TOL,
                    f"density at x={xs[i]}: {ys[i]!r} vs scipy quad {want!r}")
    else:
        sup = float(np.max(np.abs(ys - closed_density(seed, form, xs))))
        require(sup <= SUP_TOL, f"sup distance {sup:.3e} from the closed form")


def closed_predict(seed: Seed, n: int, k: int, xs: np.ndarray) -> np.ndarray | None:
    """E[member n+k | member n = x] where a closed form exists."""
    if seed.family == "exp" and seed.rate == 1.0 and (n, k) == (4, 3):
        return np.array([0.0 if x == 0 else 4.0 * x - 2.0 - x / (3.0 * math.expm1(-x / 6.0))
                         for x in xs])
    if seed.family == "normal":
        c0, c1 = member_coeffs(n)
        c2, c3 = member_coeffs(n + k)
        return xs * (c0 * c2 + c1 * c3) / (c0 * c0 + c1 * c1)
    return None


def check_predict(text: str, fmt: str, grid, seed: Seed, n: int, k: int,
                  rng: random.Random | None) -> None:
    """Closed forms are compared on the whole grid; quadrature oracles at a
    few sampled points, or at every point when rng is None."""
    xs, gs, _ = parse_curve(text, fmt, "predicted")
    check_grid(xs, grid)
    want = closed_predict(seed, n, k, xs)
    if want is not None:
        sup = float(np.max(np.abs(gs - want)))
        require(sup <= SUP_TOL, f"predictor sup distance {sup:.3e} from the closed form")
        return
    for i in range(xs.size) if rng is None else sample_indices(rng, xs.size):
        w = quad_predict(seed, n, k, float(xs[i]))
        require(abs(gs[i] - w) <= SUP_TOL, f"predictor at x={xs[i]}: {gs[i]!r} vs scipy {w!r}")


def joint_density(seed: Seed, n: int, k: int, y0: np.ndarray, y1: np.ndarray):
    """Joint density of members n and n+k from the inverse integer map, plus
    a mask of points within rounding distance of a seed-support edge, where
    a discontinuous seed density may be read on either side."""
    c0, c1 = member_coeffs(n)
    c2, c3 = member_coeffs(n + k)
    det = c0 * c3 - c1 * c2
    v0 = (c3 * y0 - c1 * y1) / det
    v1 = (c0 * y1 - c2 * y0) / det
    lo, hi = (0.0, 1.0) if seed.family == "unif" else (seed.xs[0], seed.xs[-1]) \
        if seed.family == "table" else (0.0, math.inf)
    edge = np.zeros_like(v0, dtype=bool)
    for v in (v0, v1):
        edge |= (np.abs(v - lo) < 1e-9) | (np.abs(v - hi) < 1e-9)
    return seed.pdf_many(v0) * seed.pdf_many(v1) / abs(det), edge


def check_joint(text: str, grid0, grid1, seed: Seed, n: int, k: int) -> None:
    header, rows, trailers = parse_csv(text)
    require(header == ["y0", "y1", "density"], f"unexpected CSV header {header}")
    require(rows.shape[0] == grid0[2] * grid1[2], f"{rows.shape[0]} joint values")
    check_norm_defect(trailers.get("norm_defect"))
    want, edge = joint_density(seed, n, k, rows[:, 0], rows[:, 1])
    sup = float(np.max(np.abs(rows[:, 2] - want)[~edge]))
    require(sup <= SUP_TOL, f"joint density sup distance {sup:.3e}")


def check_ratios(text: str, n_min: int, n_max: int) -> None:
    rows = json.loads(text)
    require([r["n"] for r in rows] == list(range(n_min, n_max + 1)), "ratio rows out of range")

    def mode_max(n):
        a_pp, a_p, a_n = fib(n - 2), fib(n - 1), fib(n)
        r = a_n / a_p
        return a_p * a_n * math.log(r) / a_pp, r ** (-a_n / a_pp) / a_p

    for r in rows:
        n = r["n"]
        mode_n, max_n = mode_max(n)
        mode_next, max_next = mode_max(n + 1)
        want = {"mean_ratio": fib(n + 2) / fib(n + 1), "var_ratio": fib(2 * n + 1) / fib(2 * n - 1),
                "mode_ratio": mode_next / mode_n, "max_ratio": max_n / max_next}
        for key, w in want.items():
            require(math.isclose(r[key], w, rel_tol=1e-9), f"{key} at n={n}: {r[key]} vs {w}")


def check_moments(text: str, seed: Seed, n: int) -> None:
    header, rows, _ = parse_csv(text)
    require(header == ["n", "mean", "variance"] and rows.shape[0] == 1, "bad moments table")
    mean0, var0 = seed.moments
    c0, c1 = member_coeffs(n)
    want_mean, want_var = (c0 + c1) * mean0, float(c0 * c0 + c1 * c1) * var0
    require(rows[0, 0] == n, "moments for the wrong index")
    require(abs(rows[0, 1] - want_mean) <= 1e-12 * max(1.0, abs(want_mean)), "mean mismatch")
    require(math.isclose(rows[0, 2], want_var, rel_tol=1e-12), "variance mismatch")


def check_fib(text: str, n: int) -> None:
    require(text.strip() == str(fib(n)), f"fib({n}) mismatch")


def _check_means(means, seed: Seed, n_paths: int, what: str) -> None:
    mean0, var0 = seed.moments
    for n, m in enumerate(means):
        c0, c1 = member_coeffs(n)
        want = (c0 + c1) * mean0
        se = math.sqrt(float(c0 * c0 + c1 * c1) * var0 / n_paths)
        require(abs(m - want) <= MEAN_SE_LIMIT * se + 1e-12 * abs(want),
                f"{what} mean of member {n} is {(m - want) / se:.1f} standard errors off")


def check_summary(text: str, seed: Seed, n_paths: int, horizon: int, rng_seed: int) -> dict:
    doc = json.loads(text)
    require((doc["n_paths"], doc["horizon"], doc["rng_seed"]) == (n_paths, horizon, rng_seed),
            "summary header does not match the request")
    require(len(doc["mean"]) == len(doc["variance"]) == horizon + 1, "summary length")
    _check_means(doc["mean"], seed, n_paths, "summary")
    return doc


def check_paths_file(text: str, summary: dict, seed: Seed, n_paths: int, horizon: int) -> None:
    """Raw paths: shape, exact recursion, and consistency with the summary."""
    header, rows, _ = parse_csv(text)
    require(header == ["path_index", "n", "value"], f"unexpected paths header {header}")
    require(rows.shape[0] == n_paths * (horizon + 1), f"{rows.shape[0]} path rows")
    width = horizon + 1
    require(np.array_equal(rows[:, 0], np.repeat(np.arange(n_paths), width))
            and np.array_equal(rows[:, 1], np.tile(np.arange(width), n_paths)),
            "path rows out of order")
    v = rows[:, 2].reshape(n_paths, width)
    require(bool(np.all(v[:, 2:] == v[:, 1:-1] + v[:, :-2])), "paths break the exact recursion")
    _check_means(v.mean(axis=0)[:2], seed, n_paths, "paths-out")
    for n in (0, 1, horizon):
        m, s = float(v[:, n].mean()), summary["mean"][n]
        require(abs(m - s) <= 1e-9 * (abs(s) + math.sqrt(summary["variance"][n])),
                f"paths-out mean of member {n} disagrees with the summary")


def check_seed_pairs(pairs: np.ndarray, seed: Seed, n_paths: int) -> None:
    require(pairs.shape == (n_paths, 2) and bool(np.all(np.isfinite(pairs))), "seed pairs shape")
    _check_means(pairs.mean(axis=0), seed, n_paths, "drawn seed")


def check_ratio_stats(stats: list, pairs: np.ndarray, ns) -> None:
    v0, v1 = pairs[:, 0], pairs[:, 1]
    for s, n in zip(stats, ns, strict=True):
        c0, c1 = member_coeffs(n)
        c2, c3 = member_coeffs(n + 1)
        denom = c0 * v0 + c1 * v1
        keep = np.abs(denom) >= 1e-12
        want = float(np.mean((c2 * v0 + c3 * v1)[keep] / denom[keep]))
        require(s.n == n and s.n_used + s.n_excluded == v0.size, f"ratio counts at n={n}")
        require(s.n_excluded == int(np.sum(~keep)), f"excluded count at n={n}")
        require(math.isclose(s.mean, want, rel_tol=1e-9), f"ratio mean at n={n}: {s.mean} vs {want}")
        # |ratio - phi| <= phi^-(n-1) / a_{n-1} for nonnegative seeds
        if PHI ** -(n - 1) / c0 < 1e-7:
            require(s.frac_near_phi == 1.0, f"ratio not at phi for every path at n={n}")


def exp_limit_cdf(y: np.ndarray) -> np.ndarray:
    """Cdf of the limit law for iid Exp(1) seeds, from the hypoexponential
    law of V0 + phi*V1."""
    w = np.maximum(math.sqrt(1.0 + PHI * PHI) * y + 1.0 + PHI, 0.0)
    return 1.0 - (PHI * np.exp(-w / PHI) - np.exp(-w)) / (PHI - 1.0)


def check_ks(ks: float, pairs: np.ndarray, seed: Seed, n: int, which: str) -> None:
    c0, c1 = member_coeffs(n) if which == "y" else sum_coeffs(n)
    mean0, var0 = seed.moments
    sample = ((c0 * pairs[:, 0] + c1 * pairs[:, 1]) - (c0 + c1) * mean0) \
        / math.sqrt(float(c0 * c0 + c1 * c1) * var0)
    xs = np.sort(sample)
    want = float(np.max(np.abs(np.arange(1, xs.size + 1) / xs.size - exp_limit_cdf(xs))))
    require(abs(ks - want) <= 1e-8, f"KS distance {ks!r} vs recomputed {want!r}")
    require(ks <= KS_LIMIT, f"KS distance {ks:.4f} > {KS_LIMIT}")
