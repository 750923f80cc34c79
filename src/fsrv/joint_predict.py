"""Joint law of two members of the recursion, and conditional prediction.

Members n and n+k are two linear images of the same seed pair, so their
joint density follows from inverting that 2x2 integer map. The Jacobian is
a signed Fibonacci number by d'Ocagne's identity, which keeps the inversion
exact. Conditional expectation of the later member given the earlier one is
the least-squares predictor; it is evaluated by quadrature over the exact
conditional support, with a closed form for the benchmark case of iid
unit-rate exponential seeds and (n, k) = (4, 3). On piecewise-linear seeds
every slice integral is split where the joint density kinks and is exact.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fib_core
from .errors import DomainError, OutsideSupportError
from .marginal import (FsrvModel, closed_form_tag, linear_form_knots, linear_form_support,
                       pdf_numeric, seed_nodes)
from .numerics import DEFAULT_CONFIG, QuadratureConfig, integrate, share_config

#: Quadrature settings for conditional expectations: the division by the
#: marginal density amplifies absolute error, so the default target is
#: tighter than the package-wide one.
PREDICT_CONFIG = QuadratureConfig(abs_tol=1e-12)

#: Conditioning values where the marginal density falls below this floor
#: are treated as outside the effective support.
DENSITY_FLOOR = 1e-12


@dataclass(frozen=True)
class JointLaw:
    """Coefficient matrix and signed Jacobian of the (member n, member n+k) map."""

    n: int
    k: int
    coeff_matrix: tuple[int, int, int, int]  # a_{n-1}, a_n, a_{n+k-1}, a_{n+k}
    jacobian: int

    @property
    def jacobian_abs(self) -> int:
        return abs(self.jacobian)


def joint_law(n: int, k: int) -> JointLaw:
    """Build the joint law for members n and n+k.

    The Jacobian a_{n-1}*a_{n+k} - a_n*a_{n+k-1} is computed exactly and
    cross-checked against d'Ocagne's identity, giving (-1)^n * a_k.
    """
    if n < 2:
        raise DomainError(f"member index must be >= 2, got n={n}")
    if k < 1:
        raise DomainError(f"lead must be >= 1, got k={k}")
    c = (fib_core.fib(n - 1), fib_core.fib(n), fib_core.fib(n + k - 1), fib_core.fib(n + k))
    jac = c[0] * c[3] - c[1] * c[2]
    assert jac == -fib_core.docagne(n + k - 1, n - 1) == (-1) ** n * fib_core.fib(k)
    return JointLaw(n=n, k=k, coeff_matrix=c, jacobian=jac)


def seed_coordinates(law: JointLaw, y0: float, y1: float) -> tuple[float, float]:
    """Invert the linear map: recover (v0, v1) from member values (y0, y1)."""
    c_nm1, c_n, c_nkm1, c_nk = law.coeff_matrix
    jac = float(law.jacobian)
    v0 = (c_nk * y0 - c_n * y1) / jac
    v1 = (c_nm1 * y1 - c_nkm1 * y0) / jac
    return v0, v1


def joint_pdf(law: JointLaw, model: FsrvModel, y0: float, y1: float) -> float:
    """Joint density of (member n, member n+k) at (y0, y1) for independent
    seeds: the product of seed densities at the recovered coordinates,
    divided by |Jacobian| = a_k. Zero whenever a recovered coordinate falls
    outside its seed's support."""
    v0, v1 = seed_coordinates(law, y0, y1)
    return model.seed0.pdf(v0) * model.seed1.pdf(v1) / law.jacobian_abs


def _closed_slice_pdf(law: JointLaw, model: FsrvModel, y0: float, y1):
    """joint_pdf for y1 inside the closed slice member n = y0. The recovered
    coordinates are clipped to the seed supports: inside the slice that only
    undoes rounding, and it keeps the edge value of a seed density that jumps
    at its support end, which exact per-piece quadrature needs."""
    v0, v1 = seed_coordinates(law, y0, y1)
    s0, s1 = model.seed0.support(), model.seed1.support()
    return (model.seed0.pdf(np.clip(v0, s0[0], s0[1]))
            * model.seed1.pdf(np.clip(v1, s1[0], s1[1])) / law.jacobian_abs)


def _slice_integral(law: JointLaw, model: FsrvModel, nodes, y0: float,
                    bounds: tuple[float, float], cfg: QuadratureConfig,
                    weighted: bool = False) -> float:
    """Integral over y1 in bounds of the joint density at (y0, y1), times y1
    when weighted. With the seed nodes of piecewise-linear seeds, it is split
    at the y1-images of the lines v0 = b and v1 = b, where the integrand is
    a polynomial of degree at most 3 between, and is exact; without them
    (nodes None) it is adaptive."""
    if nodes is None:
        density, knots = joint_pdf, None
    else:
        c_nm1, c_n, c_nkm1, c_nk = law.coeff_matrix
        jac = float(law.jacobian)
        density = _closed_slice_pdf
        knots = np.concatenate(((c_nk * y0 - jac * nodes[0]) / c_n,
                                (jac * nodes[1] + c_nkm1 * y0) / c_nm1))
    if weighted:
        f = lambda y1: y1 * density(law, model, y0, y1)
    else:
        f = lambda y1: density(law, model, y0, y1)
    return integrate(f, bounds[0], bounds[1], cfg, knots=knots)


def _y1_interval(law: JointLaw, s0: tuple[float, float], s1: tuple[float, float],
                 y0: float) -> tuple[float, float] | None:
    """y1-interval where both recovered seed coordinates stay inside the
    given seed intervals; None when it is empty."""
    c_nm1, c_n, c_nkm1, c_nk = law.coeff_matrix
    jac = float(law.jacobian)
    # v0 constraint: s0_lo <= (c_nk*y0 - c_n*y1)/jac <= s0_hi
    b0_a = (c_nk * y0 - jac * s0[0]) / c_n
    b0_b = (c_nk * y0 - jac * s0[1]) / c_n
    # v1 constraint: s1_lo <= (c_nm1*y1 - c_nkm1*y0)/jac <= s1_hi
    b1_a = (jac * s1[0] + c_nkm1 * y0) / c_nm1
    b1_b = (jac * s1[1] + c_nkm1 * y0) / c_nm1
    lo = max(min(b0_a, b0_b), min(b1_a, b1_b))
    hi = min(max(b0_a, b0_b), max(b1_a, b1_b))
    if not lo < hi:
        return None
    return lo, hi


def joint_support(law: JointLaw, model: FsrvModel, y0: float) -> tuple[float, float] | None:
    """Conditional support: the y1-interval compatible with member n = y0.

    Uses the seeds' mathematical supports, so the endpoints may be infinite;
    returns None when the slice is empty.
    """
    return _y1_interval(law, model.seed0.support(), model.seed1.support(), y0)


def _effective_slice(law: JointLaw, model: FsrvModel, y0: float) -> tuple[float, float] | None:
    return _y1_interval(law, model.seed0.effective_support(), model.seed1.effective_support(), y0)


def joint_normalization_check(law: JointLaw, model: FsrvModel,
                              cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Total mass of the joint density by iterated 1-D quadrature over the
    exact support slices. A correct implementation returns 1 within 1e-6.
    On piecewise-linear seeds the outer integral is split at the knots of
    member n's density, which the slice mass equals, and both levels are
    exact."""
    c0, c1 = law.coeff_matrix[0], law.coeff_matrix[1]
    y0_lo, y0_hi = linear_form_support(model, c0, c1)
    inner_cfg = share_config(cfg, cfg.abs_tol * 1e-2)
    nodes = seed_nodes(model)

    def slice_mass(y0: float) -> float:
        bounds = _effective_slice(law, model, y0)
        if bounds is None:
            return 0.0
        return _slice_integral(law, model, nodes, y0, bounds, inner_cfg)

    if nodes is None:
        return integrate(slice_mass, y0_lo, y0_hi, cfg)
    return integrate(lambda y0s: np.array([slice_mass(float(y0)) for y0 in y0s]),
                     y0_lo, y0_hi, cfg, knots=linear_form_knots(model, c0, c1))


def predict(law: JointLaw, model: FsrvModel, x: float,
            cfg: QuadratureConfig = PREDICT_CONFIG) -> float:
    """Least-squares predictor of member n+k given member n = x: the
    conditional mean, computed as the y-weighted joint mass over the
    conditional slice divided by the marginal density at x."""
    marginal = pdf_numeric(model, law.n, x, cfg)
    if marginal < DENSITY_FLOOR:
        raise OutsideSupportError(
            f"marginal density at x={x} is below the floor {DENSITY_FLOOR}; "
            "the conditional mean is not identifiable there"
        )
    bounds = _effective_slice(law, model, x)
    if bounds is None:
        raise OutsideSupportError(f"empty conditional support at x={x}")
    weighted = _slice_integral(law, model, seed_nodes(model), x, bounds, cfg, weighted=True)
    return weighted / marginal


def predict_exponential_4_to_7(x: float) -> float:
    """Closed form of the conditional mean of member 7 given member 4 = x,
    for iid unit-rate exponential seeds: 4x - 2 - x / (3*(exp(-x/6) - 1)).

    The singularity at x = 0 is removable; the limit is 0.
    """
    if x < 0:
        raise DomainError(f"conditioning value must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    return 4.0 * x - 2.0 - x / (3.0 * math.expm1(-x / 6.0))


@dataclass(frozen=True)
class PredictionCurve:
    """Predictor values over a grid of conditioning points."""

    xs: np.ndarray
    g_values: np.ndarray
    method: str


def prediction_curve(law: JointLaw, model: FsrvModel, xs,
                     method: str = "quadrature",
                     cfg: QuadratureConfig = PREDICT_CONFIG) -> PredictionCurve:
    """Evaluate the predictor on a grid.

    method='quadrature' works for any seeds; method='closed_form' is only
    available for the benchmark case (n, k) = (4, 3) with iid unit-rate
    exponential seeds.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if method == "closed_form":
        if (law.n, law.k) != (4, 3) or closed_form_tag(model) != "exponential" \
                or model.seed0.rate != 1.0:
            raise DomainError(
                "closed_form prediction is only available for (n, k) = (4, 3) "
                "with iid unit-rate exponential seeds"
            )
        values = np.array([predict_exponential_4_to_7(float(x)) for x in xs])
    elif method == "quadrature":
        values = np.array([predict(law, model, float(x), cfg) for x in xs])
    else:
        raise DomainError(f"unknown prediction method {method!r}")
    return PredictionCurve(xs=xs, g_values=values, method=method)
