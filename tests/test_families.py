import argparse
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplacefit import (
    DistributionSpec,
    Sample,
    derive_substream,
    fit_jacobi,
    fit_ps,
    fit_tweedie,
    gof_jacobi,
    gof_ps,
    gof_tweedie,
    laplace_core,
    sample_spec,
)
from laplacefit.cli import _build_parser
from laplacefit.errors import DegenerateSampleError, LaplaceFitError
from laplacefit.families import FAMILIES
from laplacefit.montecarlo import ExperimentConfig


def family_choices(command: str) -> tuple:
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    return tuple(next(a.choices for a in actions if a.dest == "family"))


@pytest.mark.parametrize("command", ["fit", "gof"])
def test_cli_family_choices_match_registry(command):
    assert family_choices(command) == tuple(FAMILIES)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_registered_family_is_a_fit_target(name):
    config = ExperimentConfig(
        generator=DistributionSpec.parse("pa:5,2"),
        fit_target=name,
        n_grid=(100,),
        metrics=("power",),
    )
    assert config.fit_target == name


@pytest.mark.parametrize("name", list(FAMILIES))
def test_fit_exposes_estimate_and_ci_per_parameter(name):
    family = FAMILIES[name]
    sample = Sample.from_values(derive_substream(61).gamma(2.0, 1.0, 400))
    fit = family.fit(sample, alpha=0.05)
    assert len(fit.estimates) == len(fit.ci) == len(family.param_names)
    for estimate, (lo, hi) in zip(fit.estimates, fit.ci):
        assert math.isfinite(estimate) and lo <= estimate <= hi


#: the exact key set of each family's fit JSON
FIT_KEYS = {
    "ps": {
        "family", "gamma_hat", "lambda_hat", "se_gamma", "se_lambda", "ci_gamma", "ci_lambda",
        "a", "n", "alpha", "diagnostics",
    },
    "tweedie": {
        "family", "gamma_hat", "lambda_hat", "theta_hat", "se_gamma", "se_lambda", "se_theta",
        "ci_gamma", "ci_lambda", "ci_theta", "a", "n", "alpha", "diagnostics",
    },
    "jacobi": {"family", "gamma_hat", "se_gamma", "ci_gamma", "a", "c", "n", "alpha", "diagnostics"},
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_fit_json_keys_and_parameter_names(name):
    family = FAMILIES[name]
    sample = Sample.from_values(derive_substream(61).gamma(2.0, 1.0, 400))
    fit = family.fit(sample, alpha=0.05)
    assert fit.family == name
    assert fit.param_names == family.param_names
    assert set(fit.to_dict()) == FIT_KEYS[name]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_subnormal_sample_is_a_coded_error(name):
    # the largest value is 1e-310, so 1/median and the censoring point overflow
    values = sample_spec(DistributionSpec.parse("ps:0.5,15"), derive_substream(55), size=500)
    sample = Sample.from_values(values / values.max() * 1e-310)
    family = FAMILIES[name]
    for run in (family.fit, family.gof):
        with pytest.raises(DegenerateSampleError):
            run(sample, alpha=0.05)


#: a sample each family fits and tests without error
FAMILY_SAMPLES = {"ps": "ps:0.5,15", "tweedie": "tw0:1,1,0.1", "jacobi": "ps:0.4,5"}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_fit_then_gof_solves_the_censoring_point_once(name, monkeypatch):
    # the sample's batch of one is summarised once, also when its solve fails
    calls = []
    summarise = laplace_core.summarise

    def counting_summarise(x):
        calls.append(x)
        return summarise(x)

    monkeypatch.setattr(laplace_core, "summarise", counting_summarise)
    spec = DistributionSpec.parse(FAMILY_SAMPLES[name])
    sample = Sample.from_values(sample_spec(spec, derive_substream(54), size=500))
    family = FAMILIES[name]
    family.fit(sample, alpha=0.05)
    family.gof(sample, alpha=0.05)
    family.gof(sample, alpha=0.05)
    assert len(calls) == 1 and calls[0].shape == (1, 500)
    assert np.shares_memory(calls[0], sample.values)
    subnormal = Sample.from_values([1e-310, 2e-310, 3e-310] * 20)
    for run in (family.fit, family.gof):
        with pytest.raises(DegenerateSampleError, match="leaves the float range"):
            run(subnormal, alpha=0.05)
    assert len(calls) == 2 and np.shares_memory(calls[1], subnormal.values)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_fit_and_gof_read_only_the_cached_statistics(name):
    # after the one solve and statistics pass, no fit or test walks the
    # sample again: emptying the values leaves every result unchanged
    spec = DistributionSpec.parse(FAMILY_SAMPLES[name])
    values = sample_spec(spec, derive_substream(54), size=500)
    warm, fresh = Sample.from_values(values), Sample.from_values(values)
    assert warm.batch.errors == [None] and not warm.batch.constant[0]
    object.__setattr__(warm, "values", np.empty(0))
    family = FAMILIES[name]
    for run in (family.fit, family.gof):
        assert run(warm, alpha=0.05).to_dict() == run(fresh, alpha=0.05).to_dict()


#: values at the ends of the float range, mixed into every drawn sample
EXTREMES = (0.0, 5e-324, 1e-310, 1.7e308, sys.float_info.max)


@st.composite
def mixed_scale_samples(draw):
    # log-normals with a large sigma or zero-inflated Paretos at any scale, both
    # clamped to the float range, plus a few values from its ends
    n = draw(st.integers(10, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore", under="ignore"):
        if draw(st.booleans()):
            x = np.exp(rng.normal(0.0, draw(st.floats(1.0, 300.0)), n))
        else:
            scale = 10.0 ** draw(st.integers(-320, 300))
            x = scale * (1.0 + rng.pareto(draw(st.floats(0.05, 3.0)), n))
            x[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
    x = np.minimum(x, sys.float_info.max)
    return np.concatenate([x, draw(st.lists(st.sampled_from(EXTREMES), max_size=6))])


@given(mixed_scale_samples())
@settings(max_examples=150, deadline=None)
def test_every_fit_and_test_is_finite_or_a_coded_error(values):
    # under tier-1's error::RuntimeWarning, so an overflow warning fails too;
    # a fit's non-finite estimate, standard error or interval must carry its flag
    sample = Sample.from_values(values)
    for fit in (fit_ps, fit_tweedie, fit_jacobi):
        try:
            result = fit(sample)
        except LaplaceFitError:
            continue
        assert math.isfinite(result.a)
        flagged = {"nonfinite_estimate", "nonfinite_covariance"} & set(result.diagnostics)
        if not flagged:
            assert np.isfinite([result.estimates, result.se]).all()
            assert np.isfinite(result.ci).all()
    for gof in (gof_ps, gof_tweedie, gof_jacobi):
        try:
            outcome = gof(sample)
        except LaplaceFitError:
            continue
        assert np.isfinite([outcome.statistic, outcome.sigma_hat, outcome.z, outcome.p_value]).all()
