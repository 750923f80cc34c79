"""Densities of sequence members for the three built-in seed families.

Member n of the recursion is a_{n-1}*V0 + a_n*V1, so its density is a scaled
convolution of the seed densities. For exponential, unit-uniform, and
standard-normal seeds there are closed forms; this script prints both routes
side by side and writes a plottable CSV per family.
"""

import csv
import math

import numpy as np

from fsrv.marginal import (
    exponential_model,
    member_form,
    normal_model,
    pdf_exponential_closed,
    pdf_normal_closed,
    pdf_numeric,
    pdf_uniform_closed,
    uniform_model,
)

N = 6

cases = [
    ("exponential", exponential_model(), lambda x: pdf_exponential_closed(N, x)),
    ("uniform", uniform_model(), lambda x: pdf_uniform_closed(N, x)),
    ("normal", normal_model(), lambda x: pdf_normal_closed(N, x)),
]

for name, model, closed in cases:
    mean, var = member_form(model, N).moments()
    sd = math.sqrt(var)
    lo = 0.0 if name != "normal" else -4.0 * sd
    hi = mean + 4.0 * sd
    xs = np.linspace(lo, hi, 9)
    print(f"\nmember {N}, {name} seeds (mean {mean:.4g}, sd {sd:.4g})")
    print(f"{'x':>10} {'closed form':>14} {'convolution':>14}")
    for x in xs:
        print(f"{x:10.3f} {closed(float(x)):14.8f} {pdf_numeric(model, N, float(x)):14.8f}")

    grid = np.linspace(lo, hi, 400)
    with open(f"member{N}_{name}_density.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "density"])
        for x in grid:
            writer.writerow([f"{x:.17g}", f"{closed(float(x)):.17g}"])
    print(f"wrote member{N}_{name}_density.csv ({grid.size} rows)")
