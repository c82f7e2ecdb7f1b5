"""One code path: a batch of samples is solved, summarised, fitted and tested row by row.

Each row's results are bitwise the same whatever batch it sits in (chunks of
1, 7 or all rows, rows in any order), and a Monte Carlo cell run in chunks
writes the records of what a loop of single public fits and tests tallies on
the replicates of its blocks: replicate r is row r mod B of block r // B, one
flat draw of B*n values with B = max(1, BLOCK_VALUES // n).
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplacefit import (
    DistributionSpec,
    Sample,
    derive_substream,
    fit_ps,
    laplace_core,
    montecarlo,
    ps,
    sample_spec,
    tweedie,
)
from laplacefit.errors import DegenerateSampleError, LaplaceFitError, TiltedRejectionInfeasibleError, refuse
from laplacefit.families import FAMILIES
from laplacefit.laplace_core import summarise
from laplacefit.montecarlo import ExperimentConfig, run_configs
from laplacefit.results import GofBatch, normal_quantile, two_sided_p_value

KINDS = ("gamma", "stable", "few_zeros", "constant", "zero", "subnormal", "zero_heavy", "spread")


def make_row(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "gamma":
        return rng.gamma(0.7, 2.0, n)
    if kind == "stable":
        return sample_spec(DistributionSpec.parse("ps:0.4,5"), derive_substream(seed), size=n)
    if kind == "few_zeros":
        x = rng.gamma(2.0, 1.0, n)
        x[: n // 4] = 0.0
        return x
    if kind == "constant":
        return np.full(n, 3.5)
    if kind == "zero":
        return np.zeros(n)
    if kind == "subnormal":
        return rng.uniform(1e-315, 1e-310, n)
    if kind == "spread":
        # spread across the float range: many more Newton steps than a law's sample
        return 10.0 ** rng.uniform(-300, 300, n)
    x = rng.gamma(2.0, 1.0, n)  # zero_heavy: a zero fraction of at least 1/e
    x[: -(-3 * n // 8)] = 0.0
    return x


def bits(value) -> bytes:
    # exact bits, with every NaN written as the one NaN
    value = np.asarray(value, dtype=float)
    return np.where(np.isnan(value), np.nan, value).tobytes()


def code(error) -> str | None:
    return None if error is None else error.code


def per_row(x: np.ndarray) -> list[tuple]:
    """Every per-row result of the batch x: statistics, then each family's fit and test."""
    batch = summarise(x)
    rows = [
        [
            bits(batch.a[i]), bits(batch.iterations[i]), bits(batch.residual[i]),
            bits(batch.m_tilde[i]), bits(batch.cov[i]), code(batch.errors[i]),
        ]
        for i in range(x.shape[0])
    ]
    for family in FAMILIES.values():
        fits, outcomes = family.fit_batch(batch, 0.05), family.gof_batch(batch, 0.05)
        for i, row in enumerate(rows):
            flags = tuple(name for name, mask in fits.flags.items() if mask[i])
            row += [
                bits(fits.estimates[i]), bits(fits.cov_hat[i]), bits(fits.ci[i]), flags,
                code(fits.errors[i]), bits(outcomes.statistic[i]), bits(outcomes.sigma_hat[i]),
                bool(outcomes.reject[i]), code(outcomes.errors[i]),
            ]
    return [tuple(row) for row in rows]


@pytest.mark.filterwarnings("error")
@given(
    n=st.integers(1, 60),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12),
    seed=st.integers(0, 2**31),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_rows_do_not_depend_on_their_batch(n, kinds, seed, order):
    x = np.array([make_row(kind, n, seed + i) for i, kind in enumerate(kinds)])
    whole = per_row(x)
    for size in (1, 7):
        chunked = [row for start in range(0, len(x), size) for row in per_row(x[start : start + size])]
        assert chunked == whole
    perm = list(range(len(x)))
    order.shuffle(perm)
    shuffled = per_row(x[perm])
    assert [shuffled[perm.index(i)] for i in range(len(x))] == whole


def test_batch_rows_cover_every_error_kind():
    # the row kinds above reach every error of the solve and of the families' row checks
    batch = summarise(np.array([make_row(kind, 40, 3) for kind in KINDS]))
    codes = {code(e) for family in (ps.FAMILY, tweedie.FAMILY) for e in family.fit_batch(batch, 0.05).errors}
    assert {code(e) for e in batch.errors} == {"degenerate_sample", "regime", None}
    assert codes == {"all_zero_sample", "degenerate_sample", "insufficient_sample", "regime", None}


@pytest.mark.filterwarnings("error")
def test_failed_rows_have_nan_statistics():
    # a refused or failed solve leaves a NaN censoring point, which the one
    # moment pass over the whole block carries into that row's statistics and
    # no other's
    kinds = ("gamma", "zero", "constant", "subnormal", "zero_heavy", "gamma", "subnormal", "zero", "constant")
    batch = summarise(np.array([make_row(kind, 50, 5 + i) for i, kind in enumerate(kinds)]))
    failed = np.array([error is not None for error in batch.errors])
    assert failed.tolist() == [kind in ("zero", "subnormal", "zero_heavy") for kind in kinds]
    assert batch.errors[kinds.index("zero_heavy")].code == "regime"
    for statistic in (batch.a, batch.m_tilde, batch.cov):
        values = statistic.reshape(len(kinds), -1)
        assert np.isnan(values[failed]).all()
        assert np.isfinite(values[~failed]).all()


def test_refuse_gives_each_masked_row_its_first_error():
    first, calls = DegenerateSampleError("first"), []

    def make(i):
        calls.append(i)
        return DegenerateSampleError(f"row {i}")

    errors = [None, first, None, None]
    refuse(errors, np.zeros(4, dtype=bool), make)
    assert errors == [None, first, None, None] and calls == []
    refuse(errors, np.array([False, True, False, True]), make)
    assert errors[:3] == [None, first, None] and str(errors[3]) == "row 3"
    assert calls == [3] and type(calls[0]) is int


# ---------------------------------------------------------------------------
# the harness against a loop of single fits and tests


def reference_tally(config: ExperimentConfig, cell_index: int, n: int) -> dict:
    """What the harness tallies for one cell, from the public API, one replicate at a time.

    Block k is drawn flat and replicate r is its row r mod B; a sampler error
    fails every replicate of its block.
    """
    family = FAMILIES[config.fit_target]
    truth = np.array(list(config.truth().values())) if config.needs_fit else None
    tally = {"estimates": [], "rejections": 0, "n_tested": 0, "failures": Counter()}
    tally["covered"] = np.zeros(0 if truth is None else truth.size, dtype=int)
    rows = max(1, montecarlo.BLOCK_VALUES // n)
    for rep in range(config.replications):
        if rep % rows == 0:
            rng = derive_substream(config.base_seed, cell_index, rep // rows)
            try:
                block = montecarlo.sample_spec(config.generator, rng, size=rows * n).reshape(rows, n)
            except LaplaceFitError as exc:
                block = exc
        if isinstance(block, LaplaceFitError):
            tally["failures"][block.code] += 1
            continue
        try:
            sample = Sample.from_values(block[rep % rows])
        except LaplaceFitError as exc:
            tally["failures"][exc.code] += 1
            continue
        if config.needs_fit:
            try:
                fit = family.fit(sample, alpha=config.alpha)
            except LaplaceFitError as exc:
                tally["failures"][exc.code] += 1
                continue
            est, ci = np.array(fit.estimates), np.array(fit.ci)
            if not (np.isfinite(est).all() and np.isfinite(ci).all()):
                tally["failures"]["nonfinite_estimate"] += 1
            else:
                tally["estimates"].append(est)
                tally["covered"] += (ci[:, 0] <= truth) & (truth <= ci[:, 1])
        if config.needs_gof:
            try:
                outcome = family.gof(sample, alpha=config.alpha)
            except LaplaceFitError as exc:
                tally["failures"][exc.code] += 1
                continue
            tally["rejections"] += int(outcome.reject)
            tally["n_tested"] += 1
    return tally


#: (generator, fit target, metrics, n grid): every code path of a cell, including
#: sampler errors, n below the minimum, regime, complex-power and non-finite rows
CELLS = [
    ("ps:0.5,15", "ps", ("rrmse", "coverage", "size"), (5, 60, 150)),
    ("we0:1,1,0.3", "ps", ("power",), (50,)),
    ("tw0:1,1,0.1", "tweedie", ("rrmse", "coverage", "size"), (60, 300)),
    ("tw0:0.75,0.5,0.1", "tweedie", ("rrmse", "coverage", "size"), (50,)),
    ("lnsqrt:0,1.5", "tweedie", ("power",), (60,)),
    ("tw:0.6,200,5", "tweedie", ("rrmse",), (60,)),
    ("pa:5,2", "jacobi", ("power",), (30,)),
]


def gof_inputs() -> list[np.ndarray]:
    """Blocks of the row kinds at n = 5, 40 and 300, and of each cell's draws at each n that any survive."""
    blocks = [np.array([make_row(kind, n, 3 + i) for i, kind in enumerate(KINDS)]) for n in (5, 40, 300)]
    for generator, target, metrics, n_grid in CELLS:
        config = ExperimentConfig(
            DistributionSpec.parse(generator), target, n_grid, replications=40, base_seed=11, metrics=metrics
        )
        for cell_index, n in enumerate(n_grid):
            drawn = -(-config.replications // max(1, montecarlo.BLOCK_VALUES // n))
            blocks.append(montecarlo._draw_chunk(config, cell_index, n, range(drawn), {}))
    return [x for x in blocks if x.shape[0]]


@pytest.mark.parametrize("alpha", [0.05, 1e-8])
@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=list(FAMILIES))
def test_gof_rejects_past_the_intervals_critical_value(family, alpha):
    # one rule with the intervals: reject where |z| > z_{1-alpha/2}; a failed
    # row's NaN z does not reject, and a row read forms its p-value from its z
    assert "p_value" not in {field.name for field in dataclasses.fields(GofBatch)}
    critical, codes, rejections = normal_quantile(alpha), set(), 0
    for x in gof_inputs():
        outcomes = family.gof_batch(summarise(x), alpha)
        assert outcomes.reject.dtype == bool
        assert np.array_equal(outcomes.reject, np.abs(outcomes.z) > critical)
        assert not outcomes.reject[np.isnan(outcomes.z)].any()
        for i, error in enumerate(outcomes.errors):
            codes.add(code(error))
            if error is None:
                outcome = outcomes.row(i)
                assert outcome.p_value == two_sided_p_value(float(outcomes.z[i]))
                assert outcome.reject == bool(outcomes.reject[i])
            else:
                assert np.isnan(outcomes.z[i]) and not outcomes.reject[i]
        rejections += int(outcomes.reject.sum())
    assert {None, "all_zero_sample", "degenerate_sample", "insufficient_sample", "regime"} <= codes
    assert rejections > 0 or alpha < 0.05  # every family rejects some block at 5 %


def poisoned(spec, rng, size):
    # about one block in four fails in the sampler, and about one value in a
    # thousand is a NaN or a negative value, so the harness's block failure and
    # row validation paths run next to the sampler's own
    if rng.random() < 0.25:
        raise TiltedRejectionInfeasibleError("poisoned block")
    values = sample_spec(spec, rng, size=size)
    bad = np.flatnonzero(rng.random(size) < 1e-3)
    values[bad] = np.where(rng.random(bad.size) < 0.5, np.nan, -1.0)
    return values


def batch_estimates(config: ExperimentConfig, cell_index: int, n: int) -> tuple[np.ndarray, dict]:
    """The finite estimates of the cell's replicates, fitted as one block, and its draw failures."""
    family, failures = FAMILIES[config.fit_target], {}
    blocks = -(-config.replications // max(1, montecarlo.BLOCK_VALUES // n))
    x = montecarlo._draw_chunk(config, cell_index, n, range(blocks), failures)
    if not x.shape[0]:
        return np.empty((0, len(family.param_names))), failures
    fits = family.fit_batch(summarise(x), config.alpha)
    finite = np.isfinite(fits.estimates).all(axis=1) & np.isfinite(fits.ci).all(axis=(1, 2))
    return fits.estimates[finite & np.array([error is None for error in fits.errors])], failures


def assert_records_match(records, config: ExperimentConfig, want: dict) -> None:
    # each record's value, Monte Carlo SE and n_ok come from the tally's
    # estimates and counts, and every record carries the tally's failures
    estimates = np.array(want["estimates"]).reshape(-1, len(FAMILIES[config.fit_target].param_names))
    expect = {}
    for j, (name, true) in enumerate(config.truth().items() if config.needs_fit else ()):
        if "rrmse" in config.metrics:
            expect["rrmse", name] = (*montecarlo._rrmse_and_se(estimates[:, j] - true, true), len(estimates))
        if "coverage" in config.metrics:
            rate = montecarlo._proportion_and_se(want["covered"][j], len(estimates))
            expect["coverage", name] = (*rate, len(estimates))
    if config.needs_gof:
        expect["test", ""] = (*montecarlo._proportion_and_se(want["rejections"], want["n_tested"]), want["n_tested"])
    got = {
        ("test" if r.metric in ("size", "power") else r.metric, r.parameter): (r.value, r.mc_se, r.n_ok)
        for r in records
    }
    assert got.keys() == expect.keys()
    for key, value in expect.items():
        assert np.array_equal(got[key], value, equal_nan=True), key
    assert all(r.failures == dict(want["failures"]) for r in records)


@pytest.mark.filterwarnings("ignore:constant sample")
@pytest.mark.parametrize("generator,target,metrics,n_grid", CELLS)
def test_cell_tallies_match_single_fits(generator, target, metrics, n_grid, monkeypatch):
    monkeypatch.setattr(montecarlo, "CHUNK_VALUES", 700)  # several chunks per cell
    monkeypatch.setattr(montecarlo, "sample_spec", poisoned)
    config = ExperimentConfig(
        DistributionSpec.parse(generator), target, n_grid, replications=80, base_seed=11,
        metrics=metrics,
    )
    for cell_index, n in enumerate(n_grid):
        want = reference_tally(config, cell_index, n)
        if config.needs_fit:
            estimates, _ = batch_estimates(config, cell_index, n)
            assert np.array_equal(estimates, np.array(want["estimates"]).reshape(estimates.shape))
        assert_records_match(montecarlo._run_cell(config, cell_index, n), config, want)
    report = run_configs([config])
    assert report.to_json() == run_configs([config], jobs=2).to_json()


def test_sampler_error_fails_its_block(monkeypatch):
    # blocks 1 and 6 of 7 fail: 13 replicates of a whole block, then the 2 of
    # the last block below the count; every block is drawn with all its rows
    sizes = []

    def failing(spec, rng, size):
        sizes.append(size)
        if len(sizes) - 1 in (1, 6):
            raise TiltedRejectionInfeasibleError("failing block")
        return sample_spec(spec, rng, size=size)

    monkeypatch.setattr(montecarlo, "sample_spec", failing)
    config = ExperimentConfig(
        DistributionSpec.parse("ps:0.5,15"), "ps", (300,), replications=80, base_seed=11,
        metrics=("size",),
    )
    (record,) = montecarlo._run_cell(config, 0, 300)
    assert montecarlo.BLOCK_VALUES // 300 == 13 and sizes == [13 * 300] * 7
    assert record.failures == {"tilted_rejection_infeasible": 15} and record.n_ok == 65


#: a report of two configs and three sizes, with rows failing in validation and in the fit
REPORT_CONFIGS = [
    ExperimentConfig(
        DistributionSpec.parse("ps:0.5,15"), "ps", (5, 90, 700), replications=37, base_seed=3,
        metrics=("rrmse", "coverage", "size"),
    ),
    ExperimentConfig(
        DistributionSpec.parse("tw0:1,1,0.1"), "tweedie", (300,), replications=30, base_seed=4,
        metrics=("size",),
    ),
]


@pytest.mark.filterwarnings("ignore:constant sample")
def test_reports_do_not_depend_on_chunking_or_jobs(monkeypatch):
    reports = set()
    for chunk in (1, 700, 2**15):
        monkeypatch.setattr(montecarlo, "CHUNK_VALUES", chunk)
        reports |= {run_configs(REPORT_CONFIGS, jobs=jobs).to_json() for jobs in (1, 2)}
    assert len(reports) == 1


@pytest.mark.parametrize("n, replications", [(60, 50), (150, 25), (700, 3)])
def test_replicates_do_not_depend_on_the_replication_count(n, replications, monkeypatch):
    # the estimates of R replicates are the first R of R + 7's, across block
    # and chunk boundaries
    monkeypatch.setattr(montecarlo, "CHUNK_VALUES", 5000)

    def estimates(count: int) -> np.ndarray:
        config = ExperimentConfig(
            DistributionSpec.parse("ps:0.5,15"), "ps", (n,), replications=count, base_seed=9
        )
        kept, failures = batch_estimates(config, 0, n)
        assert not failures
        # the harness's chunked run reads the same estimates
        assert_records_match(montecarlo._run_cell(config, 0, n), config, {"estimates": kept, "failures": {}})
        return kept

    shorter, longer = estimates(replications), estimates(replications + 7)
    assert len(longer) == replications + 7
    assert np.array_equal(shorter, longer[:replications])


def test_solve_at_the_iteration_cap_fails(monkeypatch):
    # the start 1/median misses the tolerance, and a cap of one iteration
    # stops the solve before its first Newton step is checked
    monkeypatch.setattr(laplace_core, "SOLVER_MAX_ITER", 1)
    sample = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.5,15"), derive_substream(8), size=200))
    with pytest.raises(DegenerateSampleError, match=r"stopped after 1 iterations with residual"):
        fit_ps(sample)
    config = ExperimentConfig(
        DistributionSpec.parse("ps:0.5,15"), "ps", (200,), replications=20, base_seed=5,
        metrics=("rrmse", "size"),
    )
    (record, *_) = run_configs([config]).records
    assert record.n_ok == 0 and record.failures == {"degenerate_sample": 20}
