"""Monte Carlo harness: RRMSE, coverage, and empirical size/power experiments.

Replication is deterministic and embarrassingly parallel: the stream for
replicate r of cell c is derived from (base_seed, c, r) alone, so reports are
bitwise identical regardless of worker count or scheduling.  Failed
replicates are counted by error kind and excluded from metric denominators,
never resampled (resampling would bias size and power).

The fit targets, their parameter names, null generators, fit and test
functions come from the family registry ``laplacefit.families.FAMILIES``.
The table designs at the bottom bundle the benchmark experiments
(tables 1-7): estimator RRMSE for the stable and Tweedie targets, test sizes
under the null families, test powers under the alternative laws, and the
deterministic mean/zero-probability conversion table.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import __version__
from .distributions import DistributionSpec, derive_substream, sample_spec
from .errors import ConfigError, LaplaceFitError
from .families import FAMILIES
from .laplace_core import Sample

VALID_METRICS = ("rrmse", "coverage", "size", "power")


# ---------------------------------------------------------------------------
# configuration


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
        if self.fit_target not in FAMILIES:
            raise ConfigError(f"fit_target: must be one of {tuple(FAMILIES)}, got {self.fit_target!r}")
        if not self.n_grid:
            raise ConfigError("n_grid: must be non-empty")
        if any(int(n) < 1 for n in self.n_grid):
            raise ConfigError(f"n_grid: sizes must be >= 1, got {self.n_grid}")
        if self.replications < 1:
            raise ConfigError(f"replications: must be >= 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha: must be in (0, 1), got {self.alpha}")
        unknown = [m for m in self.metrics if m not in VALID_METRICS]
        if unknown:
            raise ConfigError(f"metrics: unknown {unknown}; valid are {VALID_METRICS}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if self.needs_fit:
            self.truth()  # raises ConfigError on generator/target mismatch

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
        family = FAMILIES[self.fit_target]
        if family.truth is not None and self.generator.family in family.null_generators:
            return dict(zip(family.param_names, family.truth(self.generator)))
        raise ConfigError(
            f"generator: {self.generator.text()!r} is not in the {self.fit_target!r} "
            "null family, so rrmse/coverage have no truth to compare against"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "generator": self.generator.text(),
            "fit_target": self.fit_target,
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "alpha": self.alpha,
            "base_seed": self.base_seed,
            "metrics": list(self.metrics),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any], path: str = "") -> "ExperimentConfig":
        def fail(name: str, message: str) -> ConfigError:
            where = f"{path}.{name}" if path else name
            return ConfigError(f"{where}: {message}")

        if not isinstance(payload, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        known = {"generator", "fit_target", "n_grid", "replications", "alpha", "base_seed", "metrics"}
        for key in payload:
            if key not in known:
                raise fail(key, "unknown field")
        for name in ("generator", "fit_target", "n_grid"):
            if name not in payload:
                raise fail(name, "missing required field")
        try:
            generator = DistributionSpec.parse(str(payload["generator"]))
        except LaplaceFitError as exc:
            raise fail("generator", str(exc)) from None
        try:
            return cls(
                generator=generator,
                fit_target=str(payload["fit_target"]),
                n_grid=tuple(payload["n_grid"]),
                replications=int(payload.get("replications", 3500)),
                alpha=float(payload.get("alpha", 0.05)),
                base_seed=int(payload.get("base_seed", 0)),
                metrics=tuple(payload.get("metrics", ("rrmse",))),
            )
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
    generator: str
    fit_target: str
    n: int
    metric: str
    parameter: str
    value: float
    mc_se: float
    replications: int
    n_ok: int
    failures: dict[str, int]
    base_seed: int

    @property
    def n_failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failure_rate(self) -> float:
        return self.n_failed / self.replications if self.replications else 0.0

    def to_dict(self) -> dict[str, Any]:
        value = self.value if math.isfinite(self.value) else None
        mc_se = self.mc_se if math.isfinite(self.mc_se) else None
        return {
            "generator": self.generator,
            "fit_target": self.fit_target,
            "n": self.n,
            "metric": self.metric,
            "parameter": self.parameter,
            "value": value,
            "mc_se": mc_se,
            "replications": self.replications,
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "failures": dict(sorted(self.failures.items())),
            "base_seed": self.base_seed,
        }


_CSV_COLUMNS = (
    "generator",
    "fit_target",
    "n",
    "metric",
    "parameter",
    "value",
    "mc_se",
    "replications",
    "n_ok",
    "n_failed",
    "failures",
    "base_seed",
    "config_hash",
    "version",
)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-cell metric records plus enough provenance to reproduce them."""

    records: tuple[CellRecord, ...]
    config_hash: str
    base_seed: int
    version: str = __version__

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "config_hash": self.config_hash,
            "base_seed": self.base_seed,
            "records": [r.to_dict() for r in self.records],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        import csv as _csv

        buffer = io.StringIO()
        writer = _csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for record in self.records:
            row = record.to_dict()
            row["failures"] = json.dumps(row["failures"], sort_keys=True)
            row["config_hash"] = self.config_hash
            row["version"] = self.version
            writer.writerow([row[c] if row[c] is not None else "" for c in _CSV_COLUMNS])
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

@dataclass
class _CellTally:
    estimates: list[np.ndarray] = field(default_factory=list)
    covered: np.ndarray | None = None
    rejections: int = 0
    n_tested: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1


def _run_cell(config: ExperimentConfig, cell_index: int, n: int) -> _CellTally:
    truth = None
    tally = _CellTally()
    if config.needs_fit:
        truth = np.array(list(config.truth().values()))
        tally.covered = np.zeros(truth.size, dtype=int)
    family = FAMILIES[config.fit_target]

    for rep in range(config.replications):
        rng = derive_substream(config.base_seed, cell_index, rep)
        try:
            sample = Sample.from_values(sample_spec(config.generator, rng, size=n))
        except LaplaceFitError as exc:
            tally.fail(exc.code)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if config.needs_fit:
                try:
                    fit = family.fit(sample, alpha=config.alpha)
                    est = np.array(fit.estimates)
                    cis = np.array(fit.ci)
                    if not (np.isfinite(est).all() and np.isfinite(cis).all()):
                        tally.fail("nonfinite_estimate")
                    else:
                        tally.estimates.append(est)
                        tally.covered += (cis[:, 0] <= truth) & (truth <= cis[:, 1])
                except LaplaceFitError as exc:
                    tally.fail(exc.code)
                    continue
            if config.needs_gof:
                try:
                    outcome = family.gof(sample, alpha=config.alpha)
                    tally.rejections += int(outcome.reject)
                    tally.n_tested += 1
                except LaplaceFitError as exc:
                    tally.fail(exc.code)
    return tally


def _rrmse_and_se(deviations: np.ndarray, truth: float) -> tuple[float, float]:
    # percent RRMSE with a delta-method Monte Carlo standard error
    r = deviations.size
    m2 = float(np.mean(deviations**2))
    if m2 == 0.0:
        return 0.0, 0.0
    m4 = float(np.mean(deviations**4))
    rrmse = 100.0 * math.sqrt(m2) / abs(truth)
    var_m2 = max(m4 - m2**2, 0.0) / r
    se = 100.0 / (2.0 * math.sqrt(m2) * abs(truth)) * math.sqrt(var_m2)
    return rrmse, se


def _proportion_se(p: float, r: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / r) if r else float("nan")


def _records_for_cell(
    config: ExperimentConfig, n: int, tally: _CellTally
) -> list[CellRecord]:
    records = []
    common = dict(
        generator=config.generator.text(),
        fit_target=config.fit_target,
        n=n,
        replications=config.replications,
        failures=tally.failures,
        base_seed=config.base_seed,
    )
    wants = set(config.metrics)
    if config.needs_fit:
        truth = config.truth()
        names = list(truth)
        n_ok = len(tally.estimates)
        estimates = (
            np.array(tally.estimates) if n_ok else np.empty((0, len(names)))
        )
        for j, name in enumerate(names):
            if "rrmse" in wants:
                if n_ok:
                    value, se = _rrmse_and_se(estimates[:, j] - truth[name], truth[name])
                else:
                    value, se = float("nan"), float("nan")
                records.append(
                    CellRecord(metric="rrmse", parameter=name, value=value, mc_se=se, n_ok=n_ok, **common)
                )
            if "coverage" in wants:
                cover = tally.covered[j] / n_ok if n_ok else float("nan")
                records.append(
                    CellRecord(
                        metric="coverage",
                        parameter=name,
                        value=cover,
                        mc_se=_proportion_se(cover, n_ok) if n_ok else float("nan"),
                        n_ok=n_ok,
                        **common,
                    )
                )
    if config.needs_gof:
        is_null = config.generator.family in FAMILIES[config.fit_target].null_generators and (
            config.generator.p_zero == 0.0
        )
        label = "size" if is_null else "power"
        rate = tally.rejections / tally.n_tested if tally.n_tested else float("nan")
        records.append(
            CellRecord(
                metric=label,
                parameter="",
                value=rate,
                mc_se=_proportion_se(rate, tally.n_tested) if tally.n_tested else float("nan"),
                n_ok=tally.n_tested,
                **common,
            )
        )
    return records


def _cell_task(args: tuple[ExperimentConfig, int, int]) -> _CellTally:
    return _run_cell(*args)


def run_configs(configs: Sequence[ExperimentConfig], jobs: int = 1) -> ExperimentReport:
    """Run a list of configs; cells from all configs share one worker pool."""
    tasks = [
        (config, cell_index, n)
        for config in configs
        for cell_index, n in enumerate(config.n_grid)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            tallies = list(pool.map(_cell_task, tasks))
    else:
        tallies = [_cell_task(task) for task in tasks]
    records: list[CellRecord] = []
    for (config, _, n), tally in zip(tasks, tallies):
        records.extend(_records_for_cell(config, n, tally))
    return ExperimentReport(
        records=tuple(records),
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
    full_replications: int = 3500
    desk_replications: int = 1000


#: benchmark experiment designs, keyed by table number
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
    6: TableDesign(
        rows=("tw0:0.75,0.5,0.1", "tw0:1,1,0.1", "tw0:1,1.25,0.2"),
        fit_target="tweedie",
        metrics=(),
        n_grid=(0,),
        full_replications=1,
        desk_replications=1,
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

DEFAULT_TABLE_SEED = 20260809


def table_configs(
    table: int,
    desk_scale: bool = False,
    base_seed: int | None = None,
    replications: int | None = None,
) -> list[ExperimentConfig]:
    """Configs for one benchmark table; row i gets base seed base_seed + i."""
    if table not in TABLE_DESIGNS:
        raise ConfigError(f"table: must be one of {sorted(TABLE_DESIGNS)}, got {table}")
    if table == 6:
        raise ConfigError("table: 6 is the deterministic conversion table; use run_table")
    design = TABLE_DESIGNS[table]
    seed0 = DEFAULT_TABLE_SEED + 1000 * table if base_seed is None else base_seed
    reps = replications or (design.desk_replications if desk_scale else design.full_replications)
    return [
        ExperimentConfig(
            generator=DistributionSpec.parse(row),
            fit_target=design.fit_target,
            n_grid=design.n_grid,
            replications=reps,
            alpha=0.05,
            base_seed=seed0 + i,
            metrics=design.metrics,
        )
        for i, row in enumerate(design.rows)
    ]


def conversion_report(base_seed: int = 0) -> ExperimentReport:
    """The deterministic mean/zero-probability conversion table (table 6)."""
    records = []
    for row in TABLE_DESIGNS[6].rows:
        spec = DistributionSpec.parse(row)
        tw = spec.tweedie_params()
        for name, value in (("gamma", tw.gamma), ("lambda", tw.lam), ("theta", tw.theta)):
            records.append(
                CellRecord(
                    generator=spec.text(),
                    fit_target="tweedie",
                    n=0,
                    metric="conversion",
                    parameter=name,
                    value=value,
                    mc_se=0.0,
                    replications=1,
                    n_ok=1,
                    failures={},
                    base_seed=base_seed,
                )
            )
    return ExperimentReport(
        records=tuple(records), config_hash="conversion", base_seed=base_seed
    )


def run_table(
    table: int,
    desk_scale: bool = False,
    base_seed: int | None = None,
    replications: int | None = None,
    jobs: int = 1,
) -> ExperimentReport:
    """Run one benchmark table end to end."""
    if table == 6:
        return conversion_report(base_seed=base_seed or 0)
    configs = table_configs(
        table, desk_scale=desk_scale, base_seed=base_seed, replications=replications
    )
    return run_configs(configs, jobs=jobs)


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
                    alpha=0.05,
                    base_seed=base_seed + 100 * i + j,
                    metrics=("coverage",),
                )
            )
    return configs
