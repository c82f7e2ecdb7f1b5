import argparse
import math

import pytest

from laplacefit import DistributionSpec, Sample, derive_substream
from laplacefit.cli import _build_parser
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
    for param in family.param_names:
        estimate = getattr(fit, f"{param}_hat")
        lo, hi = getattr(fit, f"ci_{param}")
        assert math.isfinite(estimate) and lo <= estimate <= hi
