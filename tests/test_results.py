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
from laplacefit.results import make_fit, make_gof_outcome, normal_quantile, two_sided_p_value

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
        lambda: make_gof_outcome("ps", np.ones(1), np.ones(1), alpha, 100, [None]),
        lambda: gof_ps(sample, alpha=alpha),
        lambda: gof_tweedie(sample, alpha=alpha),
        lambda: gof_jacobi(sample, alpha=alpha),
    ):
        # library callers still see a ValueError
        with pytest.raises(ConfigError) as info:
            call()
        assert isinstance(info.value, ValueError)


def test_zero_test_variance_is_degenerate():
    # the row's error is raised when its outcome is read
    with pytest.raises(DegenerateSampleError, match="test variance estimate is zero"):
        make_gof_outcome("ps", np.ones(1), np.zeros(1), 0.05, 100, [None]).row(0)
    # a non-finite variance estimate passes through unchanged
    assert math.isnan(make_gof_outcome("ps", np.ones(1), np.full(1, np.nan), 0.05, 100, [None]).row(0).z)


def test_units_apply_after_the_square_root():
    # unit-free variances 4 and 9 in units 1e-300 and 1e300: the covariance in
    # those units leaves the float range, the standard errors do not
    def fit_in(units):
        estimates = np.array([[1e-300, 1e300]])
        return make_fit(
            "ps", ("a", "b"), estimates, np.diag([4.0, 9.0])[None], units, np.ones(1), 1, 0.05,
            {}, [None],
        ).row(0)

    fit = fit_in(np.array([[1e-300, 1e300]]))
    assert fit.se == pytest.approx((2e-300, 3e300), rel=1e-15)
    assert fit.cov_hat[0, 0] == 0.0 and fit.cov_hat[1, 1] == math.inf
    assert fit.diagnostics == ()
    # a standard error that is not a float is flagged
    assert fit_in(np.array([[1.0, math.inf]])).diagnostics == ("nonfinite_covariance",)


def loaded_by_import(module: str) -> bool:
    """Whether ``import laplacefit, laplacefit.cli`` in a fresh interpreter loads ``module``."""
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    code = f"import sys, laplacefit, laplacefit.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_out():
    assert not loaded_by_import("scipy")


def test_import_leaves_multiprocessing_out():
    # the process pool is imported only when run_configs runs jobs > 1
    assert not loaded_by_import("multiprocessing")
