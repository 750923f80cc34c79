"""Partial sums of the sequence collapse to two terms.

Summing members 0..n telescopes through the Fibonacci prefix-sum identity to
S_n = a_{n+1}*V0 + (a_{n+2}-1)*V1, so sums get densities, moments, and a
standardized limit exactly like single members do.
"""

import math

import numpy as np

from fsrv.limits import (
    cdf_limit_exponential_closed,
    pdf_sum,
    pdf_sum_exponential_closed,
)
from fsrv.marginal import exponential_model, sum_form, uniform_model
from fsrv.simulate import SimulationConfig, ks_distance, run_simulation

model = exponential_model()

for n in (4, 8):
    form = sum_form(model, n)
    mean, variance = form.moments()
    print(f"S_{n} = {form.c0}*V0 + {form.c1}*V1, mean {mean:g}, variance {variance:g}")

print("\ndensity of S_4 (closed two-exponential form vs convolution):")
mean, variance = sum_form(model, 4).moments()
for x in np.linspace(1.0, mean + 2 * math.sqrt(variance), 8):
    print(f"  x={x:7.2f}  closed {pdf_sum_exponential_closed(4, float(x)):.8f}  "
          f"numeric {pdf_sum(4, model, float(x)):.8f}")

print("\nuniform seeds: standardization constants of S_5:")
standard = sum_form(uniform_model(), 5).standardized()
print(f"  mean {standard.shift:g}, sd {standard.scale:.6f}")

# the standardized sum converges to the same limit law Y as single members
config = SimulationConfig(rng_seed=1, n_paths=50_000, horizon=31, model=model)
run = run_simulation(config)
for n in (10, 30):
    d = ks_distance(run, n, cdf_limit_exponential_closed, which="s")
    print(f"KS(standardized S_{n}, limit law) over {config.n_paths} paths: {d:.4f}")
