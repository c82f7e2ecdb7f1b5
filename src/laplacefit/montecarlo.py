"""Monte Carlo harness: RRMSE, coverage, and empirical size/power experiments.

Replication is deterministic and embarrassingly parallel.  The replicates of
cell c at sample size n are drawn in blocks of B = max(1, BLOCK_VALUES // n)
rows: block k is one flat draw of B*n values from the stream
derive_substream(base_seed, c, k), and replicate r is row r mod B of block
r // B.  Every block is drawn whole and the rows past the replication count
are dropped, so a replicate depends on (base_seed, c, n, r) alone, not on the
replication count, the chunking or the worker count.  To reproduce replicate
r::

    B = max(1, BLOCK_VALUES // n)
    x = sample_spec(generator, derive_substream(base_seed, c, r // B), size=B * n)
    x = x.reshape(B, n)[r % B]

A chunk of whole blocks, at most CHUNK_VALUES values (at least one block), is
solved, summarised, fitted and tested along the last axis, on the same code
path as a single fit.  A cell keeps only its finite estimates and its counts
across chunks and returns its records, so a pool worker sends back a few
records.  Failed replicates are counted by error code and excluded from
metric denominators, never resampled (resampling would bias size and power);
a sampler error fails every replicate of its block.

The fit targets, their parameter names, null generators, fit and test
functions come from the family registry ``laplacefit.families.FAMILIES``.
The table designs at the bottom bundle the benchmark experiments
(tables 1-7): estimator RRMSE for the stable and Tweedie targets, test sizes
under the null families, test powers under the alternative laws, and the
deterministic mean/zero-probability conversion table.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields
from typing import Any, Sequence

import numpy as np

from . import __version__
from .distributions import LAWS, DistributionSpec, derive_substream, sample_spec
from .errors import ConfigError, LaplaceFitError, SampleValidationError, _at_least, _convert, _items
from .families import FAMILIES
from .laplace_core import summarise
from .results import check_alpha, json_safe

VALID_METRICS = ("rrmse", "coverage", "size", "power")

#: most values a chunk of one cell's replicates stacks, in whole blocks, at least one
CHUNK_VALUES = 2**15
#: values one stream draws for a block of replicates: BLOCK_VALUES // n rows, at least one
BLOCK_VALUES = 2**12


# ---------------------------------------------------------------------------
# configuration


def _true_values(spec: DistributionSpec) -> tuple[float, ...]:
    # a generator's parameters in its record's field order; a _rule law's record is the tuple
    return spec.native if isinstance(spec.native, tuple) else astuple(spec.native)


@dataclass(frozen=True)
class ExperimentConfig:
    """One generator, one fit target, a grid of sample sizes."""

    generator: DistributionSpec
    fit_target: str
    n_grid: tuple[int, ...]
    replications: int = 3500
    alpha: float = 0.05
    base_seed: int = 0
    metrics: tuple[str, ...] = ("rrmse",)

    def __post_init__(self) -> None:
        def put(name: str, value: Any) -> None:
            object.__setattr__(self, name, value)

        if self.fit_target not in FAMILIES:
            raise ConfigError(f"fit_target: must be one of {tuple(FAMILIES)}, got {self.fit_target!r}")
        put("n_grid", tuple(_convert("n_grid", int, n) for n in _items("n_grid", self.n_grid)))
        if not self.n_grid:
            raise ConfigError("n_grid: must be non-empty")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError(f"n_grid: sizes must be >= 1, got {self.n_grid}")
        put("replications", _at_least("replications", self.replications, 1))
        put("alpha", _convert("alpha", float, self.alpha))
        check_alpha(self.alpha)
        put("base_seed", _at_least("base_seed", self.base_seed, 0))
        put("metrics", _items("metrics", self.metrics))
        if not self.metrics:
            raise ConfigError("metrics: must be non-empty")
        unknown = [m for m in self.metrics if m not in VALID_METRICS]
        if unknown:
            raise ConfigError(f"metrics: unknown {unknown}; valid are {VALID_METRICS}")
        if self.needs_fit:
            truth = self.truth()  # raises ConfigError on generator/target mismatch
            zero = [name for name, value in truth.items() if value == 0.0]
            if zero and "rrmse" in self.metrics:
                raise ConfigError(
                    f"metrics: rrmse divides by the true {zero[0]}, which is 0 for {self.generator.text()!r}"
                )

    @property
    def needs_fit(self) -> bool:
        """Whether a metric (rrmse, coverage) reads the fit and the truth."""
        return bool(set(self.metrics) & {"rrmse", "coverage"})

    @property
    def needs_gof(self) -> bool:
        """Whether a metric (size, power) reads the test outcome."""
        return bool(set(self.metrics) & {"size", "power"})

    def truth(self) -> dict[str, float]:
        """True parameter values of the fit target implied by the generator."""
        family, tag = FAMILIES[self.fit_target], self.generator.family
        if tag in family.null_generators and LAWS[tag].draw is not None:
            return dict(zip(family.param_names, _true_values(self.generator)))
        raise ConfigError(
            f"generator: {self.generator.text()!r} is not in the {self.fit_target!r} "
            "null family, so rrmse/coverage have no truth to compare against"
        )

    def to_dict(self) -> dict[str, Any]:
        """One JSON value per field, the generator as its spec text; ``from_dict`` reads it."""
        return json_safe({**asdict(self), "generator": self.generator.text()})

    @classmethod
    def from_dict(cls, payload: dict[str, Any], path: str = "") -> "ExperimentConfig":
        """Read a config object; a field left out takes its default, and every error names its path."""
        if not isinstance(payload, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        try:
            names = [f.name for f in fields(cls)]
            for key in payload:
                if key not in names:
                    raise ConfigError(f"{key}: unknown field")
            for f in fields(cls):
                if f.default is MISSING and f.name not in payload:
                    raise ConfigError(f"{f.name}: missing required field")
            try:
                generator = DistributionSpec.parse(str(payload["generator"]))
            except LaplaceFitError as exc:
                raise ConfigError(f"generator: {exc}") from None
            return cls(**dict(payload, generator=generator, fit_target=str(payload["fit_target"])))
        except ConfigError as exc:
            raise ConfigError(f"{path + '.' if path else ''}{exc}") from None


def parse_config_document(payload: dict[str, Any]) -> list[ExperimentConfig]:
    """Parse a config JSON document: one experiment object or {"experiments": [...]}."""
    if isinstance(payload, dict) and "experiments" in payload:
        items = payload["experiments"]
        if not isinstance(items, list) or not items:
            raise ConfigError("experiments: must be a non-empty list")
        return [
            ExperimentConfig.from_dict(item, path=f"experiments[{i}]")
            for i, item in enumerate(items)
        ]
    return [ExperimentConfig.from_dict(payload)]


def config_hash(configs: Sequence[ExperimentConfig]) -> str:
    canonical = json.dumps([c.to_dict() for c in configs], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class CellRecord:
    """One metric of one cell; ``failures`` counts the failed replicates by error code."""

    generator: str
    fit_target: str
    n: int
    metric: str
    parameter: str
    value: float
    mc_se: float
    replications: int
    n_ok: int
    n_failed: int = field(init=False)
    failures: dict[str, int]
    base_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "failures", dict(sorted(self.failures.items())))
        object.__setattr__(self, "n_failed", sum(self.failures.values()))

    @property
    def failure_rate(self) -> float:
        return self.n_failed / self.replications if self.replications else 0.0

    def to_dict(self) -> dict[str, Any]:
        """One JSON value per field, in field order; a non-finite value or mc_se is None."""
        return json_safe(asdict(self))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-cell metric records plus enough provenance to reproduce them."""

    records: tuple[CellRecord, ...]
    config_hash: str
    base_seed: int
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(json_safe(asdict(self)), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """One row per record: its fields, then the report's config_hash and version."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([f.name for f in fields(CellRecord)] + ["config_hash", "version"])
        for record in self.records:
            row = record.to_dict()
            row["failures"] = json.dumps(row["failures"], sort_keys=True)
            writer.writerow([*row.values(), self.config_hash, self.version])
        return buffer.getvalue()

    def write(self, prefix: str) -> tuple[str, str]:
        json_path, csv_path = f"{prefix}.json", f"{prefix}.csv"
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())
        return json_path, csv_path

    def value(self, generator: str, n: int, metric: str, parameter: str = "") -> float:
        for record in self.records:
            if (
                record.generator == generator
                and record.n == n
                and record.metric == metric
                and record.parameter == parameter
            ):
                return record.value
        raise KeyError((generator, n, metric, parameter))

    def max_failure_rate(self) -> float:
        return max((r.failure_rate for r in self.records), default=0.0)


# ---------------------------------------------------------------------------
# replicate execution

def _fail(failures: dict[str, int], code: str, count: int = 1) -> None:
    # add count failed replicates under the error code
    if count:
        failures[code] = failures.get(code, 0) + count


def _draw_chunk(
    config: ExperimentConfig, cell_index: int, n: int, blocks: range, failures: dict[str, int]
) -> np.ndarray:
    # the valid replicates of the chunk's blocks, below the replication count,
    # as an (R, n) block ((0, 0) if none: numpy may not index n columns); a sampler
    # error fails the replicates of its block and a validation error its row,
    # each counted under the scalar API's code
    rows = max(1, BLOCK_VALUES // n)
    drawn = []
    for block in blocks:
        kept = min(rows, config.replications - block * rows)
        rng = derive_substream(config.base_seed, cell_index, block)
        try:
            drawn.append(sample_spec(config.generator, rng, size=rows * n).reshape(rows, n)[:kept])
        except LaplaceFitError as exc:
            _fail(failures, exc.code, kept)
    x = np.concatenate(drawn) if drawn else np.empty((0, 0))
    valid = (np.isfinite(x) & (x >= 0.0)).all(axis=-1)
    _fail(failures, SampleValidationError.code, int(np.count_nonzero(~valid)))
    return x if valid.all() else x[valid]


def _rrmse_and_se(deviations: np.ndarray, truth: float) -> tuple[float, float]:
    # percent RRMSE with a delta-method Monte Carlo standard error, NaN for no
    # replicates; a moment that overflows makes them inf or NaN, which the
    # report writes as null
    r = deviations.size
    if not r:
        return math.nan, math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        m2 = np.mean(deviations**2)
        if m2 == 0.0:
            return 0.0, 0.0
        m4 = np.mean(deviations**4)
        rrmse = 100.0 * np.sqrt(m2) / abs(truth)
        var_m2 = np.maximum(m4 - m2**2, 0.0) / r
        se = 100.0 / (2.0 * np.sqrt(m2) * abs(truth)) * np.sqrt(var_m2)
    return float(rrmse), float(se)


def _proportion_and_se(count: int, r: int) -> tuple[float, float]:
    # count / r and its binomial standard error, NaN for no replicates
    if not r:
        return math.nan, math.nan
    p = count / r
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / r)


def _run_cell(config: ExperimentConfig, cell_index: int, n: int) -> list[CellRecord]:
    # draw, summarise, fit and test the cell chunk by chunk, keeping only the
    # finite estimates and the counts, then write the cell's records
    family = FAMILIES[config.fit_target]
    truth = config.truth() if config.needs_fit else {}
    true = np.array(list(truth.values()))
    estimates, covered = [np.empty((0, true.size))], np.zeros(true.size, dtype=int)
    rejections = n_tested = 0
    failures: dict[str, int] = {}

    def passed(errors: list[LaplaceFitError | None], rows: np.ndarray) -> np.ndarray:
        # the rows of the mask without an error; each error counted under its code
        failed = rows & np.array([error is not None for error in errors])
        for i in np.flatnonzero(failed):
            _fail(failures, errors[i].code)
        return rows & ~failed

    rows = max(1, BLOCK_VALUES // n)
    blocks = -(-config.replications // rows)
    per_chunk = max(1, CHUNK_VALUES // (rows * n))
    for start in range(0, blocks, per_chunk):
        x = _draw_chunk(config, cell_index, n, range(start, min(start + per_chunk, blocks)), failures)
        if not x.shape[0]:
            continue
        batch = summarise(x)
        # a fit error skips the replicate's test; a non-finite fit does not
        tested = np.ones(x.shape[0], dtype=bool)
        if config.needs_fit:
            fits = family.fit_batch(batch, config.alpha)
            tested = passed(fits.errors, tested)
            nonfinite = tested & fits.flags["nonfinite_covariance"]  # set by a non-finite estimate too
            _fail(failures, "nonfinite_estimate", int(np.count_nonzero(nonfinite)))
            kept = tested & ~nonfinite
            estimates.append(fits.estimates[kept])
            lo, hi = fits.ci[kept, :, 0], fits.ci[kept, :, 1]
            covered += ((lo <= true) & (true <= hi)).sum(axis=0)
        if config.needs_gof:
            outcomes = family.gof_batch(batch, config.alpha)
            ok = passed(outcomes.errors, tested)
            rejections += int(np.count_nonzero(outcomes.reject[ok]))
            n_tested += int(np.count_nonzero(ok))

    def record(metric: str, parameter: str, value_and_se: tuple[float, float], n_ok: int) -> CellRecord:
        return CellRecord(
            config.generator.text(), config.fit_target, n, metric, parameter, *value_and_se,
            config.replications, n_ok, failures, config.base_seed,
        )

    records, stacked = [], np.concatenate(estimates)
    n_ok = len(stacked)
    for j, (name, value) in enumerate(truth.items()):
        if "rrmse" in config.metrics:
            records.append(record("rrmse", name, _rrmse_and_se(stacked[:, j] - value, value), n_ok))
        if "coverage" in config.metrics:
            records.append(record("coverage", name, _proportion_and_se(covered[j], n_ok), n_ok))
    if config.needs_gof:
        is_null = config.generator.family in family.null_generators
        rate = _proportion_and_se(rejections, n_tested)
        records.append(record("size" if is_null else "power", "", rate, n_tested))
    return records


def run_configs(configs: Sequence[ExperimentConfig], jobs: int = 1) -> ExperimentReport:
    """Run a list of configs; cells from all configs share one worker pool."""
    jobs = _at_least("jobs", jobs, 1)
    tasks = [
        (config, cell_index, n)
        for config in configs
        for cell_index, n in enumerate(config.n_grid)
    ]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # multiprocessing loads only here

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_run_cell, *zip(*tasks)))
    else:
        cells = [_run_cell(*task) for task in tasks]
    return ExperimentReport(
        records=tuple(record for cell in cells for record in cell),
        config_hash=config_hash(configs),
        base_seed=configs[0].base_seed if configs else 0,
    )


# ---------------------------------------------------------------------------
# bundled benchmark designs


@dataclass(frozen=True)
class TableDesign:
    rows: tuple[str, ...]
    fit_target: str
    metrics: tuple[str, ...]
    n_grid: tuple[int, ...]
    desk_replications: int = 1000


#: Monte Carlo benchmark experiment designs, keyed by table number
TABLE_DESIGNS: dict[int, TableDesign] = {
    1: TableDesign(
        rows=("ps:0.3,2", "ps:0.4,5", "ps:0.5,15", "ps:0.6,20"),
        fit_target="ps",
        metrics=("rrmse",),
        n_grid=(100, 200, 300),
    ),
    2: TableDesign(
        rows=("tw0:1,1,0.1", "tw0:1,1.25,0.2", "tw:0.5,2,0.5", "tw:0.6,2.5,0.6"),
        fit_target="tweedie",
        metrics=("rrmse",),
        n_grid=(500, 1000, 1500),
        desk_replications=500,
    ),
    3: TableDesign(
        rows=("ps:0.3,2", "ps:0.4,5", "ps:0.5,15", "ps:0.6,20"),
        fit_target="ps",
        metrics=("size",),
        n_grid=(100, 200, 300),
    ),
    4: TableDesign(
        rows=(
            "tw0:0.75,0.5,0.1",
            "tw0:1,1,0.1",
            "tw0:1,1.25,0.2",
            "tw:0.5,2,0.5",
            "tw:0.6,2.5,0.6",
        ),
        fit_target="tweedie",
        metrics=("size",),
        n_grid=(300, 500, 1000, 1500),
    ),
    5: TableDesign(
        rows=(
            "ln:0,1.5",
            "pa:5,2",
            "pa:10,2",
            "li:0.5,2,0.5",
            "li:0.5,2,0.75",
            "lnsqrt:0,1.5",
            "lnsqrt:0,3",
        ),
        fit_target="ps",
        metrics=("power",),
        n_grid=(100, 200, 300),
    ),
    7: TableDesign(
        rows=(
            "ln:0,1",
            "we:5,1",
            "pa:10,2",
            "ln0:1,0.75,0.1",
            "ln0:1,0.75,0.2",
            "ln0:5,1,0.1",
            "ln0:5,1,0.2",
            "we0:3,1,0.1",
            "we0:3,1,0.2",
            "we0:5,1,0.1",
            "we0:5,1,0.2",
            "pa0:5,2,0.1",
            "pa0:5,2,0.2",
            "pa0:10,2,0.1",
        ),
        fit_target="tweedie",
        metrics=("power",),
        n_grid=(300, 500, 1000, 1500),
    ),
}

#: table 6, the deterministic one: mean/zero-probability triples to convert to native Tweedie parameters
CONVERSION_ROWS = ("tw0:0.75,0.5,0.1", "tw0:1,1,0.1", "tw0:1,1.25,0.2")

DEFAULT_TABLE_SEED = 20260809


def table_configs(
    table: int, desk_scale: bool = False, base_seed: int | None = None
) -> list[ExperimentConfig]:
    """Configs for one benchmark table; row i gets base seed base_seed + i.

    Each config runs :class:`ExperimentConfig`'s default replication count,
    or the design's desk-scale count when ``desk_scale`` is set;
    ``dataclasses.replace`` sets any other.
    """
    if table == 6:
        raise ConfigError("table: 6 is the deterministic conversion table; use run_table")
    if table not in TABLE_DESIGNS:
        raise ConfigError(f"table: must be one of {sorted([*TABLE_DESIGNS, 6])}, got {table}")
    design = TABLE_DESIGNS[table]
    seed0 = DEFAULT_TABLE_SEED + 1000 * table if base_seed is None else base_seed
    scale = {"replications": design.desk_replications} if desk_scale else {}
    return [
        ExperimentConfig(
            generator=DistributionSpec.parse(row),
            fit_target=design.fit_target,
            n_grid=design.n_grid,
            base_seed=seed0 + i,
            metrics=design.metrics,
            **scale,
        )
        for i, row in enumerate(design.rows)
    ]


def conversion_report(base_seed: int = 0) -> ExperimentReport:
    """The deterministic mean/zero-probability conversion table (table 6)."""
    base_seed, family = _at_least("base_seed", base_seed, 0), FAMILIES["tweedie"]
    records = tuple(
        CellRecord(spec.text(), family.name, 0, "conversion", name, value, 0.0, 1, 1, {}, base_seed)
        for spec in map(DistributionSpec.parse, CONVERSION_ROWS)
        for name, value in zip(family.param_names, _true_values(spec))
    )
    return ExperimentReport(records=records, config_hash="conversion", base_seed=base_seed)


def run_table(
    table: int, desk_scale: bool = False, base_seed: int | None = None, jobs: int = 1
) -> ExperimentReport:
    """Run one benchmark table end to end, as :func:`table_configs` sets it up."""
    jobs = _at_least("jobs", jobs, 1)
    if table == 6:
        return conversion_report(base_seed=base_seed or 0)
    return run_configs(table_configs(table, desk_scale=desk_scale, base_seed=base_seed), jobs=jobs)


def coverage_grid_configs(
    gammas: Sequence[float] = (0.3, 0.5, 0.7, 0.8),
    lambdas: Sequence[float] | None = None,
    n_grid: Sequence[int] = (200,),
    replications: int = 3500,
    base_seed: int = DEFAULT_TABLE_SEED,
) -> list[ExperimentConfig]:
    """Stable-law coverage curve designs: a (gamma, lambda) grid of configs."""
    if lambdas is None:
        lambdas = [0.5 * k for k in range(1, 25)]
    configs = []
    for i, g in enumerate(gammas):
        for j, lam in enumerate(lambdas):
            configs.append(
                ExperimentConfig(
                    generator=DistributionSpec("ps", (g, lam)),
                    fit_target="ps",
                    n_grid=tuple(int(n) for n in n_grid),
                    replications=replications,
                    base_seed=base_seed + 100 * i + j,
                    metrics=("coverage",),
                )
            )
    return configs
