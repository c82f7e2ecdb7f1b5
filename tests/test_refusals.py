"""Refusals of bad parameters, specs and configs: the error type and its exact message.

Each case here is a check that no other in-process test reaches.
"""

import json
import math

import numpy as np
import pytest

from laplacefit import tweedie
from laplacefit.cli import main
from laplacefit.distributions import DistributionSpec, PsParams, TweedieParams, Tw0Params
from laplacefit.errors import ConfigError, NearSingularError, SpecFormatError
from laplacefit.laplace_core import Batch
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
        (lambda: DistributionSpec("nope", (1.0,)), "unknown family 'nope'"),
        (lambda: DistributionSpec("pa", (5.0, 2.0), p_zero=1.0), "zero-inflation must be in [0, 1), got 1.0"),
        (lambda: DistributionSpec("pa", (5.0, 2.0), p_zero=-0.1), "zero-inflation must be in [0, 1), got -0.1"),
        (
            lambda: DistributionSpec.parse("pa0:5,2"),
            "pa0 takes 3 parameters (last one is the zero probability), got 2",
        ),
        (lambda: DistributionSpec.parse("ps:0.5,15").tweedie_params(), "ps is not a Tweedie spec"),
    ],
)
def test_bad_parameters_are_refused(make, message):
    with pytest.raises(SpecFormatError) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: ExperimentConfig(DistributionSpec.parse("ps:0.5,15"), "ps", n_grid=(0,)),
            "n_grid: sizes must be >= 1, got (0,)",
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


def test_tweedie_refuses_moments_where_psi_is_zero():
    # m1 = 1, m2 = 2e, m3 = 5e^2 put psi at exactly 0 and m1*m2 - e*m1^3 at e
    m_tilde = np.array([[1.0, 1.0, 2.0 * E, 5.0 * E**2, 30.0]])
    batch = Batch(
        100, np.array([0]), np.array([False]), np.array([1.0]), np.array([1.0 / E]),
        np.array([3]), np.array([0.0]), m_tilde, 0.1 * np.eye(4)[None], [None],
    )
    for errors in (tweedie.fit_batch(batch).errors, tweedie.gof_batch(batch).errors):
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
