"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or execute this file directly (`python tests/test_acceptance.py`).
Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from fsrv.fib_core import MAX_INDEX, PHI, docagne, fib, prefix_sum
from fsrv.joint_predict import (
    joint_law,
    joint_normalization_check,
    joint_pdf,
    joint_support,
    predict,
    predict_exponential_4_to_7,
    prediction_curve,
)
from fsrv.limits import (
    cdf_limit_exponential_closed,
    cdf_limit_uniform_closed,
    pdf_sum,
    pdf_sum_exponential_closed,
)
from fsrv.marginal import (
    exponential_model,
    member_form,
    pdf_exponential_closed,
    pdf_numeric,
    pdf_uniform_closed,
    ratio_diagnostics,
    sum_form,
    uniform_model,
)
from fsrv.numerics import integrate
from fsrv.simulate import SimulationConfig, ks_distance, ratio_stats, run_simulation

EXP = exponential_model()
UNIF = uniform_model()


def _criterion(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def exp_run_100k():
    config = SimulationConfig(rng_seed=11, n_paths=10**5, horizon=31, model=EXP)
    return run_simulation(config)


@pytest.fixture(scope="module")
def unif_run_100k():
    config = SimulationConfig(rng_seed=12, n_paths=10**5, horizon=31, model=UNIF)
    return run_simulation(config)


def test_criterion_01_golden_ratio_limits():
    worst = 0.0
    for n, tol in ((20, 1e-6), (30, 1e-10)):
        row = ratio_diagnostics(n, n)[0]
        devs = (abs(row.max_ratio - PHI), abs(row.mode_ratio - PHI),
                abs(row.mean_ratio - PHI), abs(row.var_ratio - PHI * PHI))
        worst = max(worst, max(devs) / tol)
        if max(devs) > tol:
            _criterion(1, "golden-ratio limits of max/mode/mean/variance ratios",
                       False, f"n={n}: deviations {devs} exceed {tol}")
    _criterion(1, "golden-ratio limits of max/mode/mean/variance ratios",
               worst <= 1.0, f"worst deviation at {worst:.3e} of tolerance")


def test_criterion_02_closed_forms_match_convolution():
    worst_sup = 0.0
    worst_mass = 0.0
    for n in range(2, 13):
        mean, var = member_form(EXP, n).moments()
        xs = np.linspace(0.0, mean + 12.0 * math.sqrt(var), 400)
        sup_e = max(abs(pdf_numeric(EXP, n, float(x)) - pdf_exponential_closed(n, float(x)))
                    for x in xs)
        xs_u = np.linspace(0.0, float(fib(n - 1) + fib(n)), 400)
        sup_u = max(abs(pdf_numeric(UNIF, n, float(x)) - pdf_uniform_closed(n, float(x)))
                    for x in xs_u)
        worst_sup = max(worst_sup, sup_e, sup_u)
        mass_e = integrate(lambda x: pdf_exponential_closed(n, x), 0.0, 30.0 * fib(n))
        mass_u = integrate(lambda x: pdf_uniform_closed(n, x), 0.0,
                           float(fib(n - 1) + fib(n)))
        worst_mass = max(worst_mass, abs(mass_e - 1.0), abs(mass_u - 1.0))
    ok = worst_sup <= 1e-6 and worst_mass <= 1e-8
    _criterion(2, "closed forms match the generic convolution and normalize",
               ok, f"sup-grid {worst_sup:.3e} (tol 1e-6), |mass-1| {worst_mass:.3e} (tol 1e-8)")


def test_criterion_03_moment_identities():
    worst = 0.0
    for n in range(2, 16):
        for model, closed, hi in (
            (EXP, lambda x, n=n: pdf_exponential_closed(n, x), 40.0 * fib(n)),
            (UNIF, lambda x, n=n: pdf_uniform_closed(n, x), float(fib(n - 1) + fib(n))),
        ):
            mean, var = member_form(model, n).moments()
            m1 = integrate(lambda x: x * closed(x), 0.0, hi)
            m2 = integrate(lambda x: x * x * closed(x), 0.0, hi)
            worst = max(worst, abs(m1 - mean) / mean, abs((m2 - m1 * m1) - var) / var)
    _criterion(3, "quadrature moments match exact Fibonacci formulas",
               worst <= 1e-6, f"worst relative deviation {worst:.3e} (tol 1e-6)")


def test_criterion_04_joint_law_normalization_and_marginal():
    worst_mass = 0.0
    for n, k in ((4, 3), (3, 2), (5, 1)):
        for model in (EXP, UNIF):
            mass = joint_normalization_check(joint_law(n, k), model)
            worst_mass = max(worst_mass, abs(mass - 1.0))
    law = joint_law(4, 3)
    sup = 0.0
    for x in np.linspace(0.01, 60.0, 120):
        bounds = joint_support(law, EXP, float(x))
        got = 0.0 if bounds is None else integrate(
            lambda y: joint_pdf(law, EXP, float(x), y), bounds[0], bounds[1])
        sup = max(sup, abs(got - (math.exp(-x / 3.0) - math.exp(-x / 2.0))))
    ok = worst_mass <= 1e-6 and sup <= 1e-6
    _criterion(4, "joint density normalizes and marginalizes correctly",
               ok, f"|mass-1| {worst_mass:.3e} (tol 1e-6), marginal sup {sup:.3e} (tol 1e-6)")


def test_criterion_05_predictor():
    law = joint_law(4, 3)
    sup = max(abs(predict(law, EXP, float(x)) - predict_exponential_4_to_7(float(x)))
              for x in np.linspace(0.1, 20.0, 200))
    # integrands take arrays of nodes; prediction_curve predicts them in one batch
    integrand = lambda xs: prediction_curve(law, EXP, xs) * pdf_exponential_closed(4, xs)
    tower = integrate(integrand, 1e-9, 80.0)
    tower_rel = abs(tower - 21.0) / 21.0
    ok = sup <= 1e-6 and tower_rel <= 1e-4
    _criterion(5, "conditional-mean predictor matches closed form and is unbiased",
               ok, f"sup {sup:.3e} (tol 1e-6), tower rel {tower_rel:.3e} (tol 1e-4)")


def test_criterion_06_limit_laws(exp_run_100k, unif_run_100k):
    ks_e = ks_distance(exp_run_100k, 30, cdf_limit_exponential_closed, which="y")
    ks_u = ks_distance(unif_run_100k, 30, cdf_limit_uniform_closed, which="y")

    def analytic_sup(model, pdf, target):
        mean, var = member_form(model, 30).moments()
        sd = math.sqrt(var)
        cum, prev_x, sup = 0.0, 0.0, 0.0
        for y in np.linspace(-3.5, 8.0, 240):
            x = max(mean + sd * float(y), 0.0)
            if x > prev_x:
                cum += integrate(pdf, prev_x, x)
                prev_x = x
            sup = max(sup, abs(cum - float(target(float(y)))))
        return sup

    sup_e = analytic_sup(EXP, lambda x: pdf_exponential_closed(30, x),
                         cdf_limit_exponential_closed)
    sup_u = analytic_sup(UNIF, lambda x: pdf_uniform_closed(30, x),
                         cdf_limit_uniform_closed)
    ok = max(ks_e, ks_u) <= 0.01 and max(sup_e, sup_u) <= 0.01
    _criterion(6, "standardized member converges to the limit law",
               ok, f"KS exp {ks_e:.4f}, unif {ks_u:.4f} (tol 0.01); "
                   f"analytic sup exp {sup_e:.2e}, unif {sup_u:.2e} (tol 0.01)")


def test_criterion_07_sums(exp_run_100k, unif_run_100k):
    worst_rel = 0.0
    for run in (exp_run_100k, unif_run_100k):
        pairs = run.seed_pairs
        for n in range(2, 31):
            law = sum_form(run.config.model, n)
            sums = run.sums_at(n)
            closed = law.c0 * pairs[:, 0] + law.c1 * pairs[:, 1]
            worst_rel = max(worst_rel, float(np.max(np.abs(sums - closed)
                                                    / (1.0 + np.abs(sums)))))
    worst_mass = 0.0
    worst_sup = 0.0
    for n in range(3, 11):
        law = sum_form(EXP, n)
        mass = integrate(lambda x: pdf_sum(n, EXP, x), 0.0, 30.0 * law.c1)
        worst_mass = max(worst_mass, abs(mass - 1.0))
        mean, variance = law.moments()
        hi = mean + 10.0 * math.sqrt(variance)
        sup = max(abs(pdf_sum(n, EXP, float(x))
                      - pdf_sum_exponential_closed(n, float(x)))
                  for x in np.linspace(0.0, hi, 80))
        worst_sup = max(worst_sup, sup)
    ks_s = ks_distance(exp_run_100k, 30, cdf_limit_exponential_closed, which="s")
    ok = worst_rel <= 1e-9 and worst_mass <= 1e-8 and worst_sup <= 1e-8 and ks_s <= 0.01
    _criterion(7, "partial sums: linear identity, density, and normalized limit",
               ok, f"identity rel {worst_rel:.2e} (tol 1e-9), |mass-1| {worst_mass:.2e} "
                   f"(tol 1e-8), closed sup {worst_sup:.2e} (tol 1e-8), KS {ks_s:.4f} (tol 0.01)")


def test_criterion_08_ratio_convergence():
    config = SimulationConfig(rng_seed=2024, n_paths=10**4, horizon=41, model=EXP)
    stats = ratio_stats(run_simulation(config), 40)
    dev = max(abs(stats.min - PHI), abs(stats.max - PHI))
    ok = stats.n_excluded == 0 and stats.frac_near_phi == 1.0 and dev <= 1e-6
    _criterion(8, "consecutive-member ratios reach the golden ratio",
               ok, f"max deviation {dev:.2e} (tol 1e-6), excluded {stats.n_excluded}")


def test_criterion_09_fibonacci_identities():
    ok = all(fib(n) == fib(n - 1) + fib(n - 2) for n in range(2, MAX_INDEX + 1))
    ok = ok and all(docagne(m, n) == (-1) ** n * fib(m - n)
                    for m in range(0, 101) for n in range(0, m + 1))
    ok = ok and all(prefix_sum(n) == fib(n + 2) - 1 for n in range(1, 185))
    ok = ok and all(fib(n - 1) ** 2 + fib(n) ** 2 == fib(2 * n - 1) for n in range(1, 91))
    _criterion(9, "recurrence, d'Ocagne, prefix-sum, sum-of-squares exact",
               ok, "exact integer equality over tested ranges")


def test_criterion_10_reproducibility():
    config = SimulationConfig(rng_seed=20240808, n_paths=2000, horizon=30, model=EXP)
    first = run_simulation(config, n_workers=1).summary_json()
    second = run_simulation(config, n_workers=1).summary_json()
    chunked = run_simulation(config, n_workers=4).summary_json()
    ok = first == second == chunked
    _criterion(10, "bit-identical summaries across runs and worker counts",
               ok, f"{len(first)}-byte JSON identical" if ok else "summaries differ")


if __name__ == "__main__":
    import sys

    failures = 0
    module = sys.modules[__name__]
    fixtures = {
        "exp_run_100k": run_simulation(
            SimulationConfig(rng_seed=11, n_paths=10**5, horizon=31, model=EXP)),
        "unif_run_100k": run_simulation(
            SimulationConfig(rng_seed=12, n_paths=10**5, horizon=31, model=UNIF)),
    }
    for name in sorted(dir(module)):
        if not name.startswith("test_criterion_"):
            continue
        func = getattr(module, name)
        kwargs = {arg: fixtures[arg] for arg in func.__code__.co_varnames[: func.__code__.co_argcount]
                  if arg in fixtures}
        try:
            func(**kwargs)
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
