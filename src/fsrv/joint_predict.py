"""Joint law of two members of the recursion, and conditional prediction.

Members n and n+k are two linear images of the same seed pair, so their
joint density follows from inverting that 2x2 integer map. The Jacobian is
a signed Fibonacci number by d'Ocagne's identity, which keeps the inversion
exact. Conditional expectation of the later member given the earlier one is
the least-squares predictor; it is evaluated by quadrature over the exact
conditional support, with a closed form for the benchmark case of iid
unit-rate exponential seeds and (n, k) = (4, 3). Slice integrals are cut
where a seed density ends or kinks, and exact on piecewise-linear seeds.
"""

import sys
from dataclasses import dataclass

import numpy as np

from . import fib_core
from .errors import DomainError, OutsideSupportError
from .marginal import FsrvModel, exponential_model, member_form
from .numerics import (DEFAULT_CONFIG, QuadratureConfig, _integrate_rows, integrate, line_cuts,
                       line_points)

#: Conditioning values whose slice mass (the marginal density of member n
#: there) is below this floor or not finite are treated as outside the
#: effective support: an empty slice has mass 0, and an infinite or NaN x a
#: mass of 0 or NaN.
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


def _exact_linear_map(linear_map, c_max: int, scale_by: tuple, *args):
    """linear_map(*args), for a map linear in args with coefficients up to
    c_max, elementwise. Where a value of scale_by (arrays among args) is
    large enough for a product to overflow, the map runs on args scaled by
    the power of two 2**-e that brings the largest of them below 1, and
    scales back by 2**e: exact, so every value keeps the plain map's bits
    wherever that does not overflow, and one past the double range is an
    infinity of its sign, never NaN."""
    if max(np.max(np.abs(a)) for a in scale_by) <= sys.float_info.max / (2 * c_max):
        return linear_map(*args)
    e = np.maximum(np.frexp(np.max(np.abs(np.broadcast_arrays(*scale_by)), axis=0))[1], 0)
    with np.errstate(over="ignore"):
        return tuple(np.ldexp(v, e) for v in linear_map(*(np.ldexp(a, -e) for a in args)))


def seed_coordinates(law: JointLaw, y0: float, y1: float) -> tuple[float, float]:
    """Invert the linear map: recover (v0, v1) from member values (y0, y1),
    elementwise over arrays that broadcast, without overflow (see
    _exact_linear_map; c_nk is the largest coefficient)."""
    c_nm1, c_n, c_nkm1, c_nk = law.coeff_matrix
    jac = float(law.jacobian)
    return _exact_linear_map(lambda y0, y1: ((c_nk * y0 - c_n * y1) / jac,
                                             (c_nm1 * y1 - c_nkm1 * y0) / jac),
                             c_nk, (y0, y1), y0, y1)


def joint_pdf(law: JointLaw, model: FsrvModel, y0, y1):
    """Joint density of (member n, member n+k) at (y0, y1) for independent
    seeds, elementwise over arrays that broadcast: the product of seed
    densities at the recovered coordinates, divided by |Jacobian| = a_k.
    Zero whenever a recovered coordinate falls outside its seed's support."""
    v0, v1 = seed_coordinates(law, y0, y1)
    return model.seed0.pdf(v0) * model.seed1.pdf(v1) / law.jacobian_abs


def _slice_integrals(law: JointLaw, model: FsrvModel, y0: np.ndarray, abs_tol: float,
                     weighted: bool = False) -> np.ndarray:
    """For each y0[i], the integral over y1 in the slice member n = y0[i] of
    the joint density at (y0[i], y1), times y1 when weighted; 0 for an empty
    slice. One engine row per y0, cut (line_cuts) at the y1-images of the
    lines v0 = b and v1 = b over the seeds' line_points b: exact when both
    seeds are piecewise linear, as the integrand is then a cubic between the
    cuts, else adaptive to abs_tol, an absolute target on the integral."""
    nodes0, nodes1 = line_points(model.seed0, model.seed1)

    def integrand(y1, row):
        value = joint_pdf(law, model, y0[row], y1)
        return y1 * value if weighted else value

    exact = model.seed0.piecewise_linear and model.seed1.piecewise_linear
    return _integrate_rows(integrand, y0.size, nodes0.size + nodes1.size,
                           lambda i, j: line_cuts(*_y1_images(law, y0[i:j, None], nodes0, nodes1)),
                           None if exact else abs_tol)


def _y1_images(law: JointLaw, y0, v0, v1):
    """The y1 on the slice member n = y0 where v0 = (c_nk*y0 - c_n*y1)/jac and
    where v1 = (c_nm1*y1 - c_nkm1*y0)/jac, elementwise over arrays, without
    an overflow of a product in y0 (see _exact_linear_map)."""
    c_nm1, c_n, c_nkm1, c_nk = law.coeff_matrix
    jac = float(law.jacobian)
    return _exact_linear_map(lambda y0, v0, v1: ((c_nk * y0 - jac * v0) / c_n,
                                                 (jac * v1 + c_nkm1 * y0) / c_nm1),
                             c_nk, (y0,), y0, v0, v1)


def joint_support(law: JointLaw, model: FsrvModel, y0: float) -> tuple[float, float] | None:
    """Conditional support: the y1-interval compatible with member n = y0.

    Uses the seeds' mathematical supports, so the endpoints may be infinite;
    returns None when the slice is empty.
    """
    cuts = line_cuts(*_y1_images(law, y0, np.array(model.seed0.support()),
                                 np.array(model.seed1.support())))
    return (float(cuts[0]), float(cuts[-1])) if cuts[0] < cuts[-1] else None


def joint_normalization_check(law: JointLaw, model: FsrvModel,
                              cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Total mass of the joint density by iterated 1-D quadrature over the
    exact support slices, one batch of slices per outer step. A correct
    implementation returns 1 within 1e-6. On piecewise-linear seeds the
    outer integral is split at the knots of member n's density, which the
    slice mass equals, and both levels are exact."""
    member = member_form(model, law.n)
    y0_lo, y0_hi = member.support()
    return integrate(lambda y0: _slice_integrals(law, model, y0, cfg.abs_tol * 1e-2),
                     y0_lo, y0_hi, cfg, knots=member.knots())


def predict(law: JointLaw, model: FsrvModel, x, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Least-squares predictor of member n+k given member n = x, for a float
    or elementwise over an array x: the conditional mean, the y1-weighted
    slice integral at x divided by the slice mass, which is the marginal
    density at x. Both are one batch of slice integrals over the same cuts,
    at cfg.abs_tol. The first x, in order, whose slice mass is below
    DENSITY_FLOOR or not finite raises."""
    xs = np.ravel(np.asarray(x, dtype=np.float64))
    with np.errstate(invalid="ignore"):  # an infinite x cuts at inf: inf - inf widths
        mass = _slice_integrals(law, model, xs, cfg.abs_tol)
    refused = np.flatnonzero(~np.isfinite(mass) | (mass < DENSITY_FLOOR))
    if refused.size:
        raise OutsideSupportError(
            f"marginal density at x={float(xs[refused[0]])} is below the floor {DENSITY_FLOOR}; "
            "the conditional mean is not identifiable there"
        )
    g = _slice_integrals(law, model, xs, cfg.abs_tol, weighted=True) / mass
    return g.reshape(np.shape(x)) if np.ndim(x) else float(g[0])


def predict_exponential_4_to_7(x):
    """Closed form of the conditional mean of member 7 given member 4 = x,
    for iid unit-rate exponential seeds: 4x - 2 - x / (3*(exp(-x/6) - 1)),
    for a float or elementwise over an array.

    The singularity at x = 0 is removable; the limit is 0. Below 5e-4, where
    the form cancels, the series x*(25/6 + x/216) holds to about 2e-16 relative.
    A negative x raises.
    """
    xs = np.asarray(x, dtype=np.float64)
    if (xs < 0).any():
        raise DomainError(f"conditioning value must be nonnegative, got {xs[xs < 0][0]}")
    with np.errstate(divide="ignore", invalid="ignore"):  # the 0/0 at x = 0
        g = 4.0 * xs - 2.0 - xs / (3.0 * np.expm1(-xs / 6.0))
    g = np.where(xs < 5e-4, xs * (25.0 / 6.0 + xs / 216.0) + 0.0, g)  # + 0.0: g(-0.0) is +0.0
    return g if np.ndim(x) else float(g)


def prediction_curve(law: JointLaw, model: FsrvModel, xs,
                     method: str = "quadrature",
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The predictor's values on a grid.

    method='quadrature' works for any seeds; method='closed_form' is only
    available for the benchmark case (n, k) = (4, 3) with iid unit-rate
    exponential seeds.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if method == "closed_form":
        if (law.n, law.k) != (4, 3) or model != exponential_model():
            raise DomainError(
                "closed_form prediction is only available for (n, k) = (4, 3) "
                "with iid unit-rate exponential seeds"
            )
        return predict_exponential_4_to_7(xs)
    if method == "quadrature":
        return predict(law, model, xs, cfg)
    raise DomainError(f"unknown prediction method {method!r}")
