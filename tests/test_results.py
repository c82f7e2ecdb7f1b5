import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from laplacefit import Sample, derive_substream, gof_jacobi, gof_ps, gof_tweedie
from laplacefit.errors import ConfigError, DegenerateSampleError
from laplacefit.results import make_gof_outcome, normal_quantile, two_sided_p_value

SRC = Path(__file__).resolve().parents[1] / "src"


def test_normal_quantile_matches_scipy():
    for alpha in np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), [0.05, 0.01, 1e-12]]):
        assert normal_quantile(alpha) == pytest.approx(stats.norm.ppf(1.0 - alpha / 2.0), rel=1e-12)


def test_two_sided_p_value_matches_scipy():
    for z in np.linspace(-37.0, 37.0, 7401):
        assert two_sided_p_value(z) == pytest.approx(2.0 * stats.norm.sf(abs(z)), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_alpha_outside_unit_interval_is_a_config_error(alpha):
    sample = Sample.from_values(derive_substream(62).gamma(2.0, 1.0, 200))
    for call in (
        lambda: normal_quantile(alpha),
        lambda: make_gof_outcome("ps", 1.0, 1.0, alpha, 100),
        lambda: gof_ps(sample, alpha=alpha),
        lambda: gof_tweedie(sample, alpha=alpha),
        lambda: gof_jacobi(sample, alpha=alpha),
    ):
        # library callers still see a ValueError
        with pytest.raises(ConfigError) as info:
            call()
        assert isinstance(info.value, ValueError)


def test_zero_test_variance_is_degenerate():
    with pytest.raises(DegenerateSampleError, match="test variance estimate is zero"):
        make_gof_outcome("ps", 1.0, 0.0, 0.05, 100)
    # a non-finite variance estimate passes through unchanged
    assert math.isnan(make_gof_outcome("ps", 1.0, float("nan"), 0.05, 100).z)


def test_import_leaves_scipy_out():
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    code = "import sys, laplacefit, laplacefit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
