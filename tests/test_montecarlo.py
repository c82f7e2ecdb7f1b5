import json
import math
from dataclasses import replace

import numpy as np
import pytest

from laplacefit import DistributionSpec, montecarlo
from laplacefit.errors import ConfigError
from laplacefit.montecarlo import (
    ExperimentConfig,
    conversion_report,
    coverage_grid_configs,
    parse_config_document,
    run_configs,
    run_table,
    table_configs,
)


def small_config(**overrides):
    base = dict(
        generator=DistributionSpec.parse("ps:0.5,2"),
        fit_target="ps",
        n_grid=(100,),
        replications=30,
        alpha=0.05,
        base_seed=7,
        metrics=("rrmse",),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="fit_target"):
        small_config(fit_target="weird")
    with pytest.raises(ConfigError, match="n_grid"):
        small_config(n_grid=())
    with pytest.raises(ConfigError, match="replications"):
        small_config(replications=0)
    with pytest.raises(ConfigError, match="alpha"):
        small_config(alpha=1.5)
    with pytest.raises(ConfigError, match="metrics"):
        small_config(metrics=("nope",))
    with pytest.raises(ConfigError, match="metrics: must be non-empty"):
        small_config(metrics=())
    # rrmse is relative to the true value, so a zero truth has none
    with pytest.raises(ConfigError, match="rrmse divides by the true theta, which is 0"):
        small_config(generator=DistributionSpec.parse("tw:0.5,2,0"), fit_target="tweedie")
    # coverage needs no division by it
    small_config(generator=DistributionSpec.parse("tw:0.5,2,0"), fit_target="tweedie", metrics=("coverage",))


def test_config_truth_mismatch():
    with pytest.raises(ConfigError, match="null family"):
        small_config(generator=DistributionSpec.parse("pa:5,2"))
    # the cosh-Jacobi law has no sampler, so no truth either
    with pytest.raises(ConfigError, match="null family"):
        small_config(generator=DistributionSpec.parse("jacobi:0.3"), fit_target="jacobi")
    # size/power need no truth
    cfg = small_config(generator=DistributionSpec.parse("pa:5,2"), metrics=("power",))
    assert cfg.metrics == ("power",)


def test_parse_config_document_forms():
    payload = {
        "generator": "ps:0.5,2",
        "fit_target": "ps",
        "n_grid": [50],
        "replications": 5,
    }
    assert len(parse_config_document(payload)) == 1
    multi = {"experiments": [payload, dict(payload, generator="ps:0.3,2")]}
    configs = parse_config_document(multi)
    assert [c.generator.text() for c in configs] == ["ps:0.5,2", "ps:0.3,2"]


def test_parse_config_document_field_paths():
    with pytest.raises(ConfigError, match=r"experiments\[1\].generator"):
        parse_config_document(
            {
                "experiments": [
                    {"generator": "ps:0.5,2", "fit_target": "ps", "n_grid": [50]},
                    {"generator": "bogus", "fit_target": "ps", "n_grid": [50]},
                ]
            }
        )
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config_document(
            {"generator": "ps:0.5,2", "fit_target": "ps", "n_grid": [50], "extra": 1}
        )
    good = {"generator": "ps:0.5,2", "fit_target": "ps", "n_grid": [50]}
    for field, message in MALFORMED:
        with pytest.raises(ConfigError, match=message):
            parse_config_document({"experiments": [good, dict(good, **field)]})
    # an integral float is an integer
    (config,) = parse_config_document(dict(good, n_grid=[50.0], replications=200.0, base_seed=3.0))
    assert (config.n_grid, config.replications, config.base_seed) == ((50,), 200, 3)
    assert all(type(v) is int for v in (*config.n_grid, config.replications, config.base_seed))


#: malformed field values and the coded error each one gets
MALFORMED = [
    ({"replications": "many"}, r"experiments\[1\]\.replications: must be an integer, got 'many'"),
    ({"n_grid": ["x"]}, r"experiments\[1\]\.n_grid: must be an integer, got 'x'"),
    ({"n_grid": 100}, r"experiments\[1\]\.n_grid: must be a list, got 100"),
    ({"replications": 3.7}, r"experiments\[1\]\.replications: must be an integer, got 3\.7"),
    ({"replications": True}, r"experiments\[1\]\.replications: must be an integer, got True"),
    ({"n_grid": [100.9]}, r"experiments\[1\]\.n_grid: must be an integer, got 100\.9"),
    ({"base_seed": 2.5}, r"experiments\[1\]\.base_seed: must be an integer, got 2\.5"),
    ({"base_seed": -1}, r"experiments\[1\]\.base_seed: must be >= 0, got -1"),
    ({"metrics": "size"}, r"experiments\[1\]\.metrics: must be a list, got the string 'size'"),
    ({"metrics": []}, r"experiments\[1\]\.metrics: must be non-empty"),
    ({"replications": "7"}, r"experiments\[1\]\.replications: must be an integer, got '7'"),
    ({"alpha": "0.1"}, r"experiments\[1\]\.alpha: must be a number, got '0\.1'"),
    # refused when the config is read, not when a coverage cell first needs its quantile
    ({"alpha": 5e-324}, r"experiments\[1\]\.alpha: must be in \(0, 1\) with alpha/2 > 0, got 5e-324"),
    ({"generator": "tw0:1,1,0.5"}, r"experiments\[1\]\.generator: .* has no native form"),
    # numpy's Poisson sampler refuses a mean above about 9.2e18
    (
        {"generator": "tw:-5,1e20,1", "fit_target": "tweedie"},
        r"experiments\[1\]\.generator: lam\*theta\*\*gamma = 1e\+20 is out of range",
    ),
    (
        {"generator": "tw:0.5,2,0", "fit_target": "tweedie"},
        r"experiments\[1\]\.metrics: rrmse divides by the true theta, which is 0 for 'tw:0.5,2,0'",
    ),
]



def test_tw0_truth_uses_converted_parameters():
    cfg = small_config(
        generator=DistributionSpec.parse("tw0:1,1,0.1"), fit_target="tweedie", replications=5
    )
    truth = cfg.truth()
    assert truth["gamma"] == pytest.approx(-0.767704164110660, rel=1e-12)


# ---------------------------------------------------------------------------
# runners


def test_rrmse_run_shape_and_values():
    report = run_configs([small_config(replications=60)])
    assert len(report.records) == 2  # gamma and lambda
    for record in report.records:
        assert record.metric == "rrmse"
        assert math.isfinite(record.value) and record.value > 0.0
        assert math.isfinite(record.mc_se)
        assert record.n_ok == 60 and record.n_failed == 0


def test_rrmse_of_exact_estimates_is_zero():
    # every deviation 0 gives RRMSE 0 and its standard error 0, not 0/0
    assert montecarlo._rrmse_and_se(np.zeros(5), 2.0) == (0.0, 0.0)


def test_coverage_run_degenerate_single_replicate():
    report = run_configs([small_config(replications=1, metrics=("coverage",))])
    for record in report.records:
        assert record.value in (0.0, 1.0)


def test_coverage_run_hits_nominal_level():
    report = run_configs([small_config(n_grid=(400,), replications=150, metrics=("coverage",))])
    for record in report.records:
        assert 0.85 <= record.value <= 1.0


def test_size_power_labeling():
    size_rep = run_configs([small_config(metrics=("size",), replications=40)])
    assert size_rep.records[0].metric == "size"
    power_rep = run_configs(
        [
            small_config(
                generator=DistributionSpec.parse("pa:5,2"), metrics=("power",), replications=40
            )
        ]
    )
    assert power_rep.records[0].metric == "power"
    # zero inflation leaves the stable null family
    zi_rep = run_configs(
        [
            small_config(
                generator=DistributionSpec.parse("we0:1,1,0.1"),
                metrics=("power",),
                replications=40,
            )
        ]
    )
    assert zi_rep.records[0].metric == "power"


def test_failure_accounting_without_silent_drops():
    # n below the family minimum fails every replicate; the report must carry
    # the counts and still serialize to valid JSON
    report = run_configs([small_config(n_grid=(5,), replications=8)])
    record = report.records[0]
    assert record.n_ok == 0 and record.n_failed == 8
    assert record.failures == {"insufficient_sample": 8}
    payload = json.loads(report.to_json())
    assert payload["records"][0]["value"] is None


@pytest.mark.parametrize(
    "generator, fit_target, metric, code",
    [
        ("jacobi:0.3", "jacobi", "size", "unsupported_operation"),
        ("tw:0.6,200,5", "tweedie", "rrmse", "tilted_rejection_infeasible"),
        # the stable scale lam**(1/gamma) overflows: the draws are inf or NaN
        ("ps:0.5,1e300", "ps", "size", "invalid_sample"),
        ("ps:0.01,1e5", "ps", "coverage", "invalid_sample"),
        ("tw:0.3,1e200,0", "tweedie", "size", "invalid_sample"),
    ],
)
def test_sampler_error_counts_as_failed_replicates(generator, fit_target, metric, code):
    normal = small_config(replications=20)
    failing = small_config(
        generator=DistributionSpec.parse(generator),
        fit_target=fit_target,
        metrics=(metric,),
        replications=4,
    )
    report = run_configs([normal, failing])
    alone = run_configs([normal])
    kept = [r.to_dict() for r in report.records if r.generator == normal.generator.text()]
    assert kept == [r.to_dict() for r in alone.records]
    failed = [r for r in report.records if r.generator == failing.generator.text()]
    assert failed and all(r.n_ok == 0 and r.failures == {code: 4} for r in failed)


def test_coverage_at_a_tiny_alpha_runs():
    # 1 - alpha/2 rounds to 1, where the critical value is taken from the lower tail
    report = run_configs([small_config(alpha=1e-17, metrics=("coverage",), replications=20)])
    assert report.records and all(r.value == 1.0 and r.n_failed == 0 for r in report.records)


def test_unallocatable_size_counts_as_failed_replicates():
    # 10**14 values are beyond the address space: numpy refuses them before it
    # allocates anything; 2**60 and more are beyond what numpy can index, and
    # the sampler refuses them first; each replicate fails under the config code
    n_grid = (10**14, 2**60, 10**20)
    report = run_configs([small_config(n_grid=n_grid, replications=3, metrics=("size",))])
    assert tuple(record.n for record in report.records) == n_grid
    assert all(record.n_ok == 0 and record.failures == {"config": 3} for record in report.records)


@pytest.mark.parametrize(
    "jobs, fragment",
    [
        (0, "must be >= 1, got 0"),
        (-3, "must be >= 1, got -3"),
        (2.5, "must be an integer, got 2.5"),
        ("2", "must be an integer, got '2'"),
    ],
)
def test_jobs_must_be_a_positive_integer(jobs, fragment):
    # a refused count is a ConfigError before any cell runs, never a silent serial run
    for run in (
        lambda: run_configs([small_config()], jobs=jobs),
        lambda: run_table(3, desk_scale=True, jobs=jobs),
        lambda: run_table(6, jobs=jobs),
    ):
        with pytest.raises(ConfigError, match=f"^jobs: {fragment}$"):
            run()


def test_determinism_byte_for_byte():
    cfg = small_config(replications=25, n_grid=(80, 120))
    a = run_configs([cfg])
    b = run_configs([cfg])
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_determinism_across_worker_counts():
    cfg = small_config(replications=20, n_grid=(60, 90))
    serial = run_configs([cfg], jobs=1)
    parallel = run_configs([cfg], jobs=2)
    assert serial.to_json() == parallel.to_json()


def test_mixed_metrics_single_pass():
    cfg = small_config(metrics=("rrmse", "coverage", "size"), replications=30)
    report = run_configs([cfg])
    metrics = sorted({r.metric for r in report.records})
    assert metrics == ["coverage", "rrmse", "size"]


# ---------------------------------------------------------------------------
# benchmark designs


def test_table_configs_shapes():
    configs = table_configs(1, desk_scale=True)
    assert len(configs) == 4
    assert all(c.replications == 1000 for c in configs)
    assert table_configs(2, desk_scale=True)[0].replications == 500
    assert len(table_configs(7)[0].n_grid) == 4
    with pytest.raises(ConfigError):
        table_configs(9)


def test_table_configs_refuse_zero_replications():
    # a table's config set to 0 replications is refused, not run at a default count
    with pytest.raises(ConfigError, match="replications: must be >= 1, got 0"):
        replace(table_configs(1)[0], replications=0)


def test_table_run_record_shape():
    report = run_configs([replace(c, replications=3) for c in table_configs(1)])
    # 4 models x 3 sizes x 2 parameters
    assert len(report.records) == 24
    rows = {(r.generator, r.n, r.parameter) for r in report.records}
    assert len(rows) == 24


def test_coverage_grid_configs():
    configs = coverage_grid_configs(gammas=(0.3, 0.5), lambdas=(1.0, 2.0), replications=10)
    assert len(configs) == 4
    seeds = {c.base_seed for c in configs}
    assert len(seeds) == 4


def test_coverage_grid_configs_default_lambdas():
    # four gammas by the 24 lambdas 0.5, 1.0, ..., 12
    configs = coverage_grid_configs()
    assert len(configs) == 96
    assert (configs[0].generator.text(), configs[-1].generator.text()) == ("ps:0.3,0.5", "ps:0.8,12")
    assert len({c.base_seed for c in configs}) == 96


def test_merge_and_lookup():
    merged = run_configs(
        [
            small_config(replications=10),
            small_config(generator=DistributionSpec.parse("ps:0.3,2"), replications=10),
        ]
    )
    assert len(merged.records) == 4
    assert merged.value("ps:0.3,2", 100, "rrmse", "gamma") > 0.0
    with pytest.raises(KeyError):
        merged.value("ps:0.9,9", 100, "rrmse", "gamma")


def test_report_schema_is_pinned():
    # every replicate fails, so value and mc_se are NaN: null in JSON, empty in CSV
    report = run_configs([small_config(n_grid=(5,), replications=3)])
    lines = report.to_csv().splitlines()
    assert lines[0] == (
        "generator,fit_target,n,metric,parameter,value,mc_se,replications,n_ok,n_failed,"
        "failures,base_seed,config_hash,version"
    )
    assert lines[1] == (
        '"ps:0.5,2",ps,5,rrmse,gamma,,,3,0,3,"{""insufficient_sample"": 3}",7,'
        f"{report.config_hash},{report.version}"
    )
    assert json.loads(report.to_json())["records"][0] == {
        "generator": "ps:0.5,2", "fit_target": "ps", "n": 5, "metric": "rrmse",
        "parameter": "gamma", "value": None, "mc_se": None, "replications": 3, "n_ok": 0,
        "n_failed": 3, "failures": {"insufficient_sample": 3}, "base_seed": 7,
    }


def test_report_csv_round_trip():
    import csv
    import io

    report = run_configs([small_config(replications=10)])
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(rows) == len(report.records)
    assert rows[0]["generator"] == "ps:0.5,2"
    assert json.loads(rows[0]["failures"]) == {}


def test_coverage_moderate_sample_size():
    # coverage at n=100 for a high-index stable model still lands near nominal
    cfg = small_config(
        generator=DistributionSpec.parse("ps:0.8,3"),
        n_grid=(100,),
        replications=600,
        metrics=("coverage",),
        base_seed=31,
    )
    report = run_configs([cfg])
    for record in report.records:
        assert 0.91 <= record.value <= 0.97
