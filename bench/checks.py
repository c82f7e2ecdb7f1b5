"""Correctness checks, each against a recomputation from the benchmark's own
inputs, a published value or a property of the method.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from designs import (
    MC_DESIGNS,
    NOMINAL_COVERAGE,
    PARAMS,
    POWER_LN0_1500,
    POWER_WE0_500_MIN,
    TABLE1_RRMSE,
    TABLE2_RRMSE,
    TABLE3_SIZE,
    TABLE4_SIZE,
    TOL_COVERAGE,
    TOL_POWER,
    TOL_RRMSE_PS,
    TOL_RRMSE_TW,
    TOL_SIZE,
)
from inputs import PS_GAMMA, RESCALE, TW_GAMMA

INV_E = math.exp(-1.0)

#: relative agreement required of recomputed closed-form quantities
REL_TOL = 1e-9


def _rel_gap(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _censored(x: np.ndarray, a: float) -> tuple[float, float]:
    """mean(exp(-a x)) and mean(x exp(-a x))."""
    weights = np.exp(-a * x)
    return float(weights.mean()), float((x * weights).mean())


def ps_gof_z(x: np.ndarray, a: float) -> float:
    """The positive stable test's z at censoring point ``a``, from its definition."""
    weights = np.exp(-a * x)
    m1, m2, m3 = (float((x**r * weights).mean()) for r in (1, 2, 3))
    statistic = math.sqrt(x.size) * (a * m2 - m1)
    terms = weights * ((a * m3 - 2.0 * m2) / m1 + x * (1.0 - a * x))
    return statistic / float(terms.std(ddof=1))


def check_cli_fit(label: str, family: str, payload: dict, x: np.ndarray) -> list[str]:
    """Checks every successful ``laplacefit fit`` output must pass."""
    problems = []
    a = payload["a"]
    m0, m1 = _censored(x, a)
    if abs(m0 - INV_E) > REL_TOL * INV_E:
        problems.append(f"{label}: mean(exp(-a x)) = {m0!r}, not 1/e")
    if not abs(payload["z"]) < 5.0:
        problems.append(f"{label}: |z| = {abs(payload['z']):.3g} >= 5 on a null sample")
    gamma_hat = payload["gamma_hat"]
    if family == "ps":
        gamma_ref = math.e * a * m1
        lambda_ref = a**-gamma_ref
        if _rel_gap(gamma_hat, gamma_ref) > REL_TOL:
            problems.append(f"{label}: gamma_hat {gamma_hat!r} != e*a*m1 = {gamma_ref!r}")
        if _rel_gap(payload["lambda_hat"], lambda_ref) > REL_TOL:
            problems.append(f"{label}: lambda_hat {payload['lambda_hat']!r} != a**-gamma = {lambda_ref!r}")
        if not abs(gamma_hat - PS_GAMMA) < 0.01:
            problems.append(f"{label}: gamma_hat {gamma_hat:.5f} not within 0.01 of {PS_GAMMA}")
    elif not abs(gamma_hat - TW_GAMMA) <= 0.05:
        problems.append(f"{label}: gamma_hat {gamma_hat:.5f} not within 0.05 of {TW_GAMMA}")
    return problems


def check_rescaled(payload: dict, base: np.ndarray) -> list[str]:
    """The fit of ``base * RESCALE`` must give the unscaled fit's gamma_hat and z.

    X -> cX maps A -> A/c, so the unscaled fit is evaluated at the program's
    censoring point times c; that keeps the solver's own tolerance out of the
    comparison.
    """
    a = payload["a"] * RESCALE
    _, m1 = _censored(base, a)
    gamma_ref, z_ref = math.e * a * m1, ps_gof_z(base, a)
    problems = []
    if _rel_gap(payload["gamma_hat"], gamma_ref) > REL_TOL:
        problems.append(f"ps_rescaled: gamma_hat {payload['gamma_hat']!r} != unscaled {gamma_ref!r}")
    if _rel_gap(payload["z"], z_ref) > REL_TOL:
        problems.append(f"ps_rescaled: z {payload['z']!r} != unscaled {z_ref!r}")
    return problems


def check_same_json(text_out: str, csv_out: str) -> list[str]:
    if json.loads(text_out) != json.loads(csv_out):
        return ["tweedie: plain-text and CSV inputs give different results"]
    return []


# ---------------------------------------------------------------------------
# Monte Carlo reports


def _pool(rounds: list[dict]) -> dict[tuple, dict]:
    """Pool each cell's records over rounds: (generator, n, metric, parameter) -> value, se."""
    groups: dict[tuple, list[dict]] = {}
    for rnd in rounds:
        for rec in rnd["records"]:
            key = (rec["generator"], rec["n"], rec["metric"], rec["parameter"])
            groups.setdefault(key, []).append(rec)
    pooled = {}
    for key, recs in groups.items():
        counts = [r["n_ok"] for r in recs]
        total = sum(counts)
        if any(r["value"] is None or r["mc_se"] is None for r in recs) or total == 0:
            pooled[key] = {"value": math.nan, "se": math.nan, "n": total}
            continue
        if key[2] == "rrmse":
            # pool mean squared errors; the delta method carries each round's
            # standard error of rrmse to its mean squared error and back
            mse = sum(c * r["value"] ** 2 for c, r in zip(counts, recs)) / total
            var_mse = sum((c / total) ** 2 * (2.0 * r["value"] * r["mc_se"]) ** 2 for c, r in zip(counts, recs))
            value = math.sqrt(mse)
            se = math.sqrt(var_mse) / (2.0 * value) if value > 0.0 else 0.0
        else:
            value = sum(c * r["value"] for c, r in zip(counts, recs)) / total
            se = math.sqrt(max(value * (1.0 - value), 0.0) / total)
        pooled[key] = {"value": value, "se": se, "n": total}
    return pooled


def replicate_failures(rounds: list[dict]) -> int:
    """Failed replicates; every record of one cell repeats that cell's failures."""
    cells = {(r["generator"], r["n"], r["base_seed"]): r["n_failed"] for rnd in rounds for r in rnd["records"]}
    return sum(cells.values())


def _band_check(problems: list[str], pooled: dict, key: tuple, want: float, tol: float, scale: float) -> None:
    cell = pooled.get(key)
    if cell is None:
        problems.append(f"{key}: missing from the report")
        return
    got, band = scale * cell["value"], 3.0 * scale * cell["se"]
    if not abs(got - want) <= tol + band:
        problems.append(f"{key}: {got:.3f} vs published {want} (tol {tol} + 3 SE {band:.3f})")


def _shrinks(problems: list[str], pooled: dict, gen: str, n_lo: int, n_hi: int, params: tuple[str, ...]) -> None:
    for name in params:
        lo = pooled.get((gen, n_lo, "rrmse", name), {}).get("value", math.nan)
        hi = pooled.get((gen, n_hi, "rrmse", name), {}).get("value", math.nan)
        if not hi < lo:
            problems.append(f"{gen} rrmse[{name}] does not shrink: n={n_lo} {lo:.3f}, n={n_hi} {hi:.3f}")


def check_mc(workload: str, rounds: list[dict]) -> list[str]:
    """Published-value, coverage, consistency and power checks on pooled rounds."""
    design = MC_DESIGNS[workload]
    pooled = _pool(rounds)
    n_lo, n_hi = design["n_grid"][0], design["n_grid"][-1]
    problems: list[str] = []
    if workload == "mc_ps_small_n":
        for (gen, n), expected in TABLE1_RRMSE.items():
            for name, want in zip(PARAMS["ps"], expected):
                _band_check(problems, pooled, (gen, n, "rrmse", name), want, TOL_RRMSE_PS, 1.0)
                key = (gen, n, "coverage", name)
                _band_check(problems, pooled, key, NOMINAL_COVERAGE, TOL_COVERAGE, 1.0)
        for (gen, n), want in TABLE3_SIZE.items():
            _band_check(problems, pooled, (gen, n, "size", ""), want, TOL_SIZE, 100.0)
        for gen in {g for g, _ in TABLE1_RRMSE}:
            _shrinks(problems, pooled, gen, n_lo, n_hi, PARAMS["ps"])
        return problems
    for (gen, n), expected in TABLE2_RRMSE.items():
        for name, want in zip(PARAMS["tweedie"], expected):
            _band_check(problems, pooled, (gen, n, "rrmse", name), want, TOL_RRMSE_TW, 1.0)
    for gen in {g for g, _ in TABLE2_RRMSE}:
        _shrinks(problems, pooled, gen, n_lo, n_hi, PARAMS["tweedie"])
    for (gen, n), want in TABLE4_SIZE.items():
        _band_check(problems, pooled, (gen, n, "size", ""), want, TOL_SIZE, 100.0)
    for gen in ("ln0:5,1,0.1", "we0:5,1,0.1"):
        lo, hi = pooled.get((gen, n_lo, "power", "")), pooled.get((gen, n_hi, "power", ""))
        if lo is None or hi is None:
            problems.append(f"{gen} power: missing from the report")
            continue
        if not hi["value"] >= lo["value"] - 3.0 * math.hypot(lo["se"], hi["se"]):
            problems.append(f"{gen} power falls: n={n_lo} {lo['value']:.4f}, n={n_hi} {hi['value']:.4f}")
    _band_check(problems, pooled, ("ln0:5,1,0.1", 1500, "power", ""), POWER_LN0_1500, TOL_POWER, 100.0)
    we0 = pooled.get(("we0:5,1,0.1", 500, "power", ""))
    if we0 is not None and not 100.0 * (we0["value"] + 3.0 * we0["se"]) >= POWER_WE0_500_MIN:
        problems.append(f"we0:5,1,0.1 n=500 power {100.0 * we0['value']:.2f} < {POWER_WE0_500_MIN}")
    return problems
