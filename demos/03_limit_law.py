"""The limit law of standardized members.

Standardizing member n gives Y_n = (X_n - E X_n)/sd(X_n); as n grows the
coefficient ratio a_n/a_{n-1} settles at the golden ratio and Y_n converges,
for every seed outcome, to Y = standardized (V0 + phi*V1). For exponential
seeds Y has an explicit two-exponential density, for uniform seeds the
trapezoid of V0 + phi*V1 pushed through the standardization.
"""

import math

import numpy as np

from fsrv.fib_core import PHI
from fsrv.limits import (
    cdf_limit_exponential_closed,
    cdf_limit_uniform_closed,
    pdf_limit_exponential_closed,
    pdf_limit_numeric,
    pdf_limit_uniform_closed,
)
from fsrv.marginal import exponential_model, limit_form, member_form, pdf_exponential_closed
from fsrv.numerics import integrate

model = exponential_model()
form = limit_form(model)
print(f"exponential seeds: Y = (V0 + phi*V1 - {form.shift:.6f}) / {form.scale:.6f}")
print(f"{'y':>7} {'closed pdf':>12} {'convolution':>12}")
for y in np.linspace(-1.3, 4.0, 9):
    print(f"{y:7.2f} {pdf_limit_exponential_closed(float(y)):12.8f} "
          f"{pdf_limit_numeric(model, float(y)):12.8f}")

print("\nuniform seeds: trapezoidal limit density")
for y in np.linspace(-2.2, 2.2, 9):
    print(f"{y:7.2f} {pdf_limit_uniform_closed(float(y)):12.8f}")

# convergence: distribution of the standardized member n vs the limit
print("\nsup |F_Yn - F_Y| by cumulative quadrature of the member density:")
for n in (5, 10, 20, 30):
    mean, var = member_form(model, n).moments()
    sd = math.sqrt(var)
    cum, prev, sup = 0.0, 0.0, 0.0
    for y in np.linspace(-3.0, 7.0, 160):
        x = max(mean + sd * y, 0.0)
        if x > prev:
            cum += integrate(lambda t: pdf_exponential_closed(n, t), prev, x)
            prev = x
        sup = max(sup, abs(cum - cdf_limit_exponential_closed(float(y))))
    print(f"  n={n:2d}: {sup:.3e}")

print(f"\ncheck: uniform limit cdf at the plateau end = "
      f"{cdf_limit_uniform_closed((PHI - (1 + PHI) / 2) / math.sqrt((1 + PHI**2) / 12)):.6f} "
      f"(triangle mass 1/(2 phi) plus plateau mass (phi-1)/phi)")
