import math

import numpy as np
import pytest
from scipy import stats

from laplacefit import Sample, derive_substream, gof_jacobi, gof_ps, gof_tweedie
from laplacefit.errors import ConfigError, DegenerateSampleError
from laplacefit.laplace_core import Batch
from laplacefit.results import Family, normal_quantile, two_sided_p_value


def stub_batch(n: int = 100) -> Batch:
    # one row of n values that passes every row check; the stub maps read nothing else
    return Batch(
        n, np.zeros(1, int), np.zeros(1, bool), np.ones(1), np.full(1, 3), np.zeros(1),
        np.ones((1, 5)), np.eye(4)[None], [None],
    )


def stub_family(fit_map=None, gof_map=None) -> Family:
    """A family whose maps return fixed arrays, to drive the assembly in ``Family``."""
    return Family("stub", ("a", "b"), (), fit_map, gof_map, min_sample=1)


def stub_gof(statistic, sigma_hat, alpha=0.05, scale=1.0):
    # the stub batch's covariance is the identity, so the row (scale * sigma_hat, 0) has sigma_hat
    row = np.array([[scale * sigma_hat, 0.0]])
    family = stub_family(gof_map=lambda batch, errors: (np.array([statistic]), row, scale))
    return family.gof_batch(stub_batch(), alpha)


def test_normal_quantile_matches_scipy():
    # isf(alpha/2) does not round 1 - alpha/2, which loses the digits of a small alpha
    for alpha in np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), [0.05, 0.01, 1e-12]]):
        assert normal_quantile(alpha) == pytest.approx(stats.norm.isf(alpha / 2.0), rel=1e-12)
    for alpha in (1e-4, 1e-8, 1e-12, 1e-15):
        assert normal_quantile(alpha) == pytest.approx(stats.norm.isf(alpha / 2.0), rel=1e-15)


@pytest.mark.parametrize("alpha", [1e-16, 1e-17, 1e-100, 1e-300, 1e-323])
def test_normal_quantile_where_one_minus_half_alpha_rounds_to_one(alpha):
    # 1 - alpha/2 rounds to 1 below about 1.1e-16; the quantile stays finite
    assert normal_quantile(alpha) == pytest.approx(stats.norm.isf(alpha / 2.0), rel=1e-12)


def test_two_sided_p_value_matches_scipy():
    for z in np.linspace(-37.0, 37.0, 7401):
        assert two_sided_p_value(z) == pytest.approx(2.0 * stats.norm.sf(abs(z)), rel=1e-12)


# 5e-324 is in (0, 1), but its half underflows to 0, past any normal quantile
@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, float("nan"), 5e-324])
def test_alpha_outside_unit_interval_is_a_config_error(alpha):
    sample = Sample.from_values(derive_substream(62).gamma(2.0, 1.0, 200))
    for call in (
        lambda: normal_quantile(alpha),
        lambda: stub_gof(1.0, 1.0, alpha),
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
    with pytest.raises(DegenerateSampleError, match="^test variance estimate is zero$"):
        stub_gof(1.0, 0.0).row(0)
    # so is a statistic or a variance estimate that is not finite
    for statistic, sigma_hat in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(DegenerateSampleError, match="^test statistic or its variance is not finite$"):
            stub_gof(statistic, sigma_hat).row(0)


def test_test_variance_is_the_row_quadratic_form_over_the_scale():
    # sigma_hat = sqrt(row @ S @ row) / scale, with S cut to the row's width
    outcome = stub_gof(2.0, 0.5, scale=4.0).row(0)
    assert (outcome.sigma_hat, outcome.z) == (0.5, 4.0)
    family = stub_family(gof_map=lambda batch, errors: (np.array([1.0]), np.array([[3.0, 4.0]]), 10.0))
    assert family.gof_batch(stub_batch()).sigma_hat.tolist() == [0.5]


def test_units_apply_after_the_square_root():
    # unit-free variances 4 and 9 in units 1e-300 and 1e300: the covariance in
    # those units leaves the float range, the standard errors do not
    def fit_in(units):
        estimates = np.array([[1e-300, 1e300]])
        # influence rows diag(2, 3) on the identity covariance: unit-free variances 4 and 9
        family = stub_family(fit_map=lambda batch, errors: (estimates, np.diag([2.0, 3.0])[None], units, {}))
        return family.fit_batch(stub_batch(n=1), 0.05).row(0)

    fit = fit_in(np.array([[1e-300, 1e300]]))
    assert fit.se == pytest.approx((2e-300, 3e300), rel=1e-15)
    assert fit.cov_hat[0, 0] == 0.0 and fit.cov_hat[1, 1] == math.inf
    assert fit.diagnostics == ()
    # a standard error that is not a float is flagged
    assert fit_in(np.array([[1.0, math.inf]])).diagnostics == ("nonfinite_covariance",)
    # so is an interval bound that overflows although its standard error is a float
    fit = fit_in(np.array([[1.0, 5e307]]))
    assert math.isfinite(fit.se[1]) and fit.ci[1][1] == math.inf
    assert fit.diagnostics == ("nonfinite_covariance",)
