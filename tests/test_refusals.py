"""Refusals of bad parameters, specs, arguments and configs: the error type and its exact message.

Each case here is a check that no other in-process test reaches.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from laplacefit import jacobi, ps, tweedie
from laplacefit.cli import main
from laplacefit.distributions import (
    DistributionSpec, PsParams, TweedieParams, Tw0Params, derive_substream, sample_spec,
    tw_censoring_point, tw_theoretical_censored_moments, tw_to_tw0,
)
from laplacefit.errors import (
    ConfigError, DegenerateSampleError, InvalidRegimeError, NearSingularError, RegimeError,
    SampleValidationError, SpecFormatError,
)
from laplacefit.jacobi import jacobi_censoring_point, jacobi_population_m1
from laplacefit.laplace_core import Batch, Sample, summarise
from laplacefit.montecarlo import ExperimentConfig, parse_config_document, table_configs

E = math.e


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PsParams(0.5, 0.0), "scale must be positive, got 0.0"),
        (lambda: PsParams(0.5, -1.0), "scale must be positive, got -1.0"),
        (lambda: TweedieParams(0.0, 1.0, 1.0), "index must be in (-inf, 1] \\ {0}, got 0.0"),
        (lambda: TweedieParams(1.5, 1.0, 1.0), "index must be in (-inf, 1] \\ {0}, got 1.5"),
        (lambda: TweedieParams(0.5, 1.0, -1.0), "tilt must be >= 0, got -1.0"),
        (lambda: TweedieParams(-1.0, 1.0, 0.0), "compound-Poisson branch (gamma < 0) needs theta > 0"),
        (lambda: Tw0Params(0.0, 1.0, 0.5), "mean must be positive, got 0.0"),
        (lambda: Tw0Params(1.0, 0.0, 0.5), "w must be positive, got 0.0"),
        (lambda: Tw0Params(1.0, math.inf, 0.5), "mean and w must be finite, got 1.0 and inf"),
        (lambda: Tw0Params(math.inf, 1.0, 0.5), "mean and w must be finite, got inf and 1.0"),
        (lambda: DistributionSpec("nope", (1.0,)), "unknown family 'nope'"),
        (lambda: DistributionSpec("pa", (5.0, 2.0), p_zero=1.0), "zero-inflation must be in [0, 1), got 1.0"),
        (lambda: DistributionSpec("pa", (5.0, 2.0), p_zero=-0.1), "zero-inflation must be in [0, 1), got -0.1"),
        (
            lambda: DistributionSpec.parse("pa0:5,2"),
            "pa0 takes 3 parameters (last one is the zero probability), got 2",
        ),
    ],
)
def test_bad_parameters_are_refused(make, message):
    with pytest.raises(SpecFormatError) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "make, error, message",
    [
        # the population censoring point's root lies past the float maximum
        pytest.param(
            lambda: tw_censoring_point(TweedieParams(1e-300, 1.0, 1.0)), RegimeError,
            "the censoring point of TweedieParams(gamma=1e-300, lam=1.0, theta=1.0) lies past the float maximum",
            id="tw_censoring_point-tiny-gamma",
        ),
        pytest.param(
            lambda: tw_censoring_point(TweedieParams(-1e-300, 2.0, 1.0)), RegimeError,
            "the censoring point of TweedieParams(gamma=-1e-300, lam=2.0, theta=1.0) lies past the float maximum",
            id="tw_censoring_point-tiny-negative-gamma",
        ),
        pytest.param(
            lambda: tw_censoring_point(TweedieParams(0.001, 1e-300, 0.0)), RegimeError,
            "the censoring point of TweedieParams(gamma=0.001, lam=1e-300, theta=0.0) lies past the float maximum",
            id="tw_censoring_point-tiny-lam",
        ),
        # ... or below the smallest normal float
        pytest.param(
            lambda: tw_censoring_point(TweedieParams(0.5, 1e200, 0.0)), RegimeError,
            "the censoring point of TweedieParams(gamma=0.5, lam=1e+200, theta=0.0) lies below the smallest normal float",
            id="tw_censoring_point-huge-lam",
        ),
        # m1 = lam/e at a_* = 1/lam is finite, m1**2 is not
        pytest.param(
            lambda: tw_theoretical_censored_moments(TweedieParams(1.0, 1e200, 0.0), 1e-200), RegimeError,
            "the censored moments of TweedieParams(gamma=1.0, lam=1e+200, theta=0.0) at 1e-200 lie past the float maximum",
            id="tw_theoretical_censored_moments",
        ),
        pytest.param(
            lambda: jacobi_censoring_point(1e-300), RegimeError,
            "censoring point c**(1/gamma) at index 1e-300 lies past the float maximum",
            id="jacobi_censoring_point",
        ),
        pytest.param(
            lambda: jacobi_population_m1(1e-300), RegimeError,
            "censoring point c**(1/gamma) at index 1e-300 lies past the float maximum",
            id="jacobi_population_m1",
        ),
        # theta**(gamma-1) of the mean overflows
        pytest.param(
            lambda: tw_to_tw0(TweedieParams(-0.01, 1.0, 1e-310)), InvalidRegimeError,
            "index -0.01 and tilt 1e-310 put theta**(gamma-1) outside the float range",
            id="tw_to_tw0",
        ),
    ],
)
def test_population_values_past_the_float_range_are_refused(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: ExperimentConfig(DistributionSpec.parse("ps:0.5,15"), "ps", n_grid=(0,)),
            "n_grid: sizes must be >= 1, got (0,)",
        ),
        # the constructor reads and checks a generator and fit target that are not yet a spec and a name
        (
            lambda: ExperimentConfig(DistributionSpec.parse("ps:0.5,15"), ["ps"], n_grid=(100,)),
            "fit_target: must be one of ('ps', 'tweedie', 'jacobi'), got \"['ps']\"",
        ),
        (
            lambda: ExperimentConfig("ps:0.5", "ps", n_grid=(100,), metrics=("size",)),
            "generator: ps takes 2 parameters, got 1",
        ),
        (
            lambda: ExperimentConfig(5, "ps", n_grid=(100,), metrics=("size",)),
            "generator: expected 'family:p1,p2,...', got '5'",
        ),
        (lambda: parse_config_document([{"generator": "ps:0.5,15"}]), "config: expected an object"),
        (lambda: parse_config_document({"experiments": []}), "experiments: must be a non-empty list"),
        (lambda: table_configs(6), "table: 6 is the deterministic conversion table; use run_table"),
    ],
)
def test_bad_configs_are_refused(make, message):
    with pytest.raises(ConfigError) as caught:
        make()
    assert str(caught.value) == message


PS = DistributionSpec.parse("ps:0.5,15")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: derive_substream(-1), "seed: must be >= 0, got -1"),
        (lambda: derive_substream(1, -2), "key: must be >= 0, got -2"),
        (lambda: derive_substream(1.5), "seed: must be an integer, got 1.5"),
        (lambda: derive_substream(1, 0, 2.0), "key: must be an integer, got 2.0"),
        (lambda: derive_substream(None), "seed: must be an integer, got None"),
        (lambda: derive_substream([1, 2]), "seed: must be an integer, got [1, 2]"),
        (lambda: sample_spec(PS, derive_substream(1), -1), "size: must be >= 0, got -1"),
        (lambda: sample_spec(PS, derive_substream(1), 2.5), "size: must be an integer, got 2.5"),
        (lambda: sample_spec(PS, derive_substream(1), True), "size: must be an integer, got True"),
        (lambda: sample_spec(PS, derive_substream(1), None), "size: must be an integer, got None"),
        # numpy cannot index 2**60 or more float64 values: refused before any draw
        (
            lambda: sample_spec(PS, derive_substream(1), 2**60),
            "size: 1152921504606846976 values cannot be allocated (more float64 bytes than numpy can index)",
        ),
        (
            lambda: sample_spec(PS, derive_substream(1), 10**20),
            "size: 100000000000000000000 values cannot be allocated (more float64 bytes than numpy can index)",
        ),
    ],
)
def test_bad_sampler_arguments_are_refused(make, message):
    with pytest.raises(ConfigError) as caught:
        make()
    assert str(caught.value) == message


def test_sampler_arguments_numpy_takes_still_draw():
    # a zero size and numpy integers pass the checks above and draw as plain ints do
    assert sample_spec(PS, derive_substream(1), 0).shape == (0,)
    drawn = sample_spec(PS, derive_substream(np.int64(7), np.int64(1)), np.int64(3))
    assert drawn.tobytes() == sample_spec(PS, derive_substream(7, 1), 3).tobytes()


def test_sample_of_values_that_are_not_numbers_is_refused():
    with pytest.raises(SampleValidationError) as caught:
        Sample.from_values(["a"])
    assert str(caught.value) == "sample values must be numbers (could not convert string to float: 'a')"


def test_text_generator_reads_as_its_spec():
    text, spec = "tw:0.5,2,0.5", DistributionSpec.parse("tw:0.5,2,0.5")
    from_text = ExperimentConfig(text, "tweedie", n_grid=(100,))
    assert from_text.generator == spec
    assert from_text.to_dict() == ExperimentConfig(spec, "tweedie", n_grid=(100,)).to_dict()


@pytest.mark.parametrize("module", [ps, tweedie, jacobi], ids=lambda m: m.FAMILY.name)
def test_gof_refuses_an_infinite_variance(module):
    # every family's test variance is formed in one place, which refuses it when it is not finite
    x = sample_spec(DistributionSpec.parse("tw0:1,1,0.1"), derive_substream(5), 300)
    batch = summarise(x[None])
    assert module.FAMILY.gof_batch(batch).errors == [None]
    infinite = dataclasses.replace(batch, cov=np.full_like(batch.cov, np.inf))
    (error,) = module.FAMILY.gof_batch(infinite).errors
    assert isinstance(error, DegenerateSampleError)
    assert str(error) == "test statistic or its variance is not finite"


def test_tweedie_refuses_moments_where_psi_is_zero():
    # m1 = 1, m2 = 2e, m3 = 5e^2 put psi at exactly 0 and m1*m2 - e*m1^3 at e
    m_tilde = np.array([[1.0, 1.0, 2.0 * E, 5.0 * E**2, 30.0]])
    batch = Batch(
        100, np.array([0]), np.array([False]), np.array([1.0]),
        np.array([3]), np.array([0.0]), m_tilde, 0.1 * np.eye(4)[None], [None],
    )
    for errors in (tweedie.FAMILY.fit_batch(batch).errors, tweedie.FAMILY.gof_batch(batch).errors):
        assert isinstance(errors[0], NearSingularError)
        assert str(errors[0]) == "|psi| = 0 below 1e-08 of scale 21.7"


def test_experiment_refuses_a_config_that_is_not_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json", encoding="utf-8")
    code = main(["experiment", str(path), "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error (config): config: invalid JSON (Expecting value: line 1 column 1 (char 0))\n"
    )


def test_experiment_desk_scale_caps_a_config_at_1000_replicates(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    config = {"generator": "ps:0.5,15", "fit_target": "ps", "n_grid": [10],
              "replications": 3500, "metrics": ["size"]}
    path.write_text(json.dumps(config), encoding="utf-8")
    prefix = tmp_path / "r"
    assert main(["experiment", str(path), "--desk-scale", "--out", str(prefix)]) == 0
    capsys.readouterr()
    records = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["records"]
    assert [record["replications"] for record in records] == [1000]
