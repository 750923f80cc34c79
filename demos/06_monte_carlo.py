"""Monte Carlo side of the story: paths, ratios, and distribution checks.

Every path draws its seed pair from its own counter-indexed substream, so a
run is bit-reproducible for a given seed no matter how work is chunked. The
consecutive-member ratio locks onto the golden ratio within a few dozen
steps; empirical laws of standardized members match the analytic limit.
"""

import numpy as np

from fsrv.fib_core import PHI
from fsrv.limits import cdf_limit_exponential_closed
from fsrv.marginal import exponential_model, member_form, normal_model
from fsrv.simulate import SimulationConfig, ks_distance, ratio_stats, run_simulation, sample_path

config = SimulationConfig(rng_seed=42, n_paths=20_000, horizon=41, model=exponential_model())
run = run_simulation(config, n_workers=4)

print("one sampled path (members 0..8):")
print("  " + ", ".join(f"{v:.4f}" for v in sample_path(run)[0, :9]))

print("\nconsecutive-member ratio across paths:")
print(f"{'n':>3} {'mean':>12} {'min':>12} {'max':>12} {'within 1e-6 of phi':>20}")
for n in (2, 5, 10, 20, 40):
    stats = ratio_stats(run, n)
    print(f"{n:3d} {stats.mean:12.8f} {stats.min:12.8f} {stats.max:12.8f} "
          f"{stats.frac_near_phi:20.4f}")
print(f"(phi = {PHI:.8f}; sign-mixing seeds can lose paths to the exclusion rule,")
norm_run = run_simulation(SimulationConfig(rng_seed=42, n_paths=20_000, horizon=41,
                                           model=normal_model()))
norm_stats = ratio_stats(norm_run, 40)
print(f" normal seeds at n=40 keep {norm_stats.n_used} of 20000 paths here)")

print("\nempirical moments vs analytic, member 20:")
mean, var = member_form(config.model, 20).moments()
values = run.values_at(20)
print(f"  mean {float(np.mean(values)):12.4f} vs {mean:.4f}")
print(f"  var  {float(np.var(values, ddof=1)):12.1f} vs {var:.1f}")

d = ks_distance(run, 30, cdf_limit_exponential_closed, which="y")
print(f"\nKS distance of standardized member 30 to the limit law: {d:.4f}")

again = run_simulation(config, n_workers=1)
print(f"rerun with different worker count gives identical summary: "
      f"{again.summary_json() == run.summary_json()}")
