import math

import numpy as np
import pytest

from laplacefit import (
    Sample,
    derive_substream,
    fit_jacobi,
    gof_jacobi,
)
from laplacefit.errors import ConfigError, LogDomainError, RegimeError
from laplacefit.jacobi import (
    JACOBI_C,
    jacobi_censoring_point,
    jacobi_population_m1,
)

from numdiff_oracle import central_diff_gradient

E = math.e


def test_constant_value_of_c():
    assert JACOBI_C == pytest.approx(1.657454, abs=1e-6)
    assert math.cosh(JACOBI_C) == pytest.approx(E, rel=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 0.6, math.nan])
def test_censoring_point_refuses_index(gamma):
    with pytest.raises(ConfigError, match="index must be in") as excinfo:
        jacobi_censoring_point(gamma)
    assert isinstance(excinfo.value, ValueError)


def test_fit_at_half_index():
    # a constant sample at 1/c**2 solves the transform equation at A = c**2,
    # where the index estimate is exactly 1/2
    s = Sample.from_values([JACOBI_C**-2] * 30)
    fit = fit_jacobi(s)
    assert fit.a == pytest.approx(JACOBI_C**2, rel=1e-12)
    assert fit.estimates[0] == pytest.approx(0.5, rel=1e-10)
    assert fit.diagnostics == ()


def test_fit_at_quarter_index():
    s = Sample.from_values([JACOBI_C**-4] * 30)
    fit = fit_jacobi(s)
    assert fit.estimates[0] == pytest.approx(0.25, rel=1e-10)


def test_gamma_log_identity():
    rng = derive_substream(50)
    s = Sample.from_values(rng.gamma(2.0, 1.0, 400))
    fit = fit_jacobi(s)
    assert fit.estimates[0] * math.log(fit.a) == pytest.approx(math.log(JACOBI_C), rel=1e-14)


def test_population_moment_makes_statistic_vanish():
    for gamma in (0.2, 0.35, 0.5):
        a_star = jacobi_censoring_point(gamma)
        m1 = jacobi_population_m1(gamma)
        numerator = m1 - math.exp(-2.0) * JACOBI_C * math.sinh(JACOBI_C) * gamma / a_star
        assert numerator == pytest.approx(0.0, abs=1e-15)


def test_out_of_range_flag():
    # data on a scale that pushes A below 1 gives a negative index estimate
    s = Sample.from_values(np.linspace(5.0, 50.0, 100))
    fit = fit_jacobi(s)
    assert fit.a < 1.0 and fit.estimates[0] < 0.0
    assert "gamma_out_of_range" in fit.diagnostics


def test_log_domain_error():
    # constant sample at 1 puts the censoring point exactly at 1
    with pytest.raises(LogDomainError):
        fit_jacobi(Sample.from_values([1.0] * 20))


def test_regime_error_on_zero_inflation():
    with pytest.raises(RegimeError):
        fit_jacobi(Sample.from_values([0.0] * 40 + [1.0] * 60))


def test_fit_gradient_matches_finite_differences():
    # d gamma / d a = -log(c)/(a*log(a)^2) against central differences
    for a in (0.2, 2.0, 7.5):
        analytic = -math.log(JACOBI_C) / (a * math.log(a) ** 2)
        numeric = central_diff_gradient(
            lambda v: math.log(JACOBI_C) / np.log(v[0]), np.array([a])
        )[0]
        assert analytic == pytest.approx(numeric, rel=1e-5)


def test_gof_gradient_matches_finite_differences():
    # the test's analytic variance against the delta method with a central
    # difference gradient of the statistic map and the raw rows (V_1, W)
    def statistic_map(v):
        m1, a = v
        return m1 - math.exp(-2.0) * JACOBI_C * math.sinh(JACOBI_C) * (
            math.log(JACOBI_C) / np.log(a)
        ) / a

    x = derive_substream(54).gamma(2.0, 1.0, 400)
    for scale in (1.0, 0.2, 3.0):
        s = Sample.from_values(x * scale)
        a, m_tilde = s.batch.a[0], s.batch.m_tilde[0]
        m1, m2 = m_tilde[1] / a, m_tilde[2] / a**2
        weights = np.exp(-a * s.values)
        rows = np.stack([weights * (s.values - m2 / m1), weights / m1])
        numeric = central_diff_gradient(statistic_map, np.array([m1, a]))
        sigma = math.sqrt(numeric @ np.cov(rows, ddof=1) @ numeric)
        assert gof_jacobi(s).sigma_hat == pytest.approx(sigma, rel=1e-5)


def test_statistic_permutation_invariant():
    rng = derive_substream(51)
    values = rng.gamma(2.0, 1.0, 300)
    base = gof_jacobi(Sample.from_values(values))
    shuffled = gof_jacobi(Sample.from_values(values[rng.permutation(300)]))
    assert shuffled.statistic == pytest.approx(base.statistic, rel=1e-10)
    assert shuffled.sigma_hat == pytest.approx(base.sigma_hat, rel=1e-10)


def test_rejects_unit_exponential():
    # power against a non-Jacobi law must clear the nominal level
    rejections = 0
    reps = 200
    for rep in range(reps):
        rng = derive_substream(52, rep)
        s = Sample.from_values(rng.standard_exponential(300))
        rejections += gof_jacobi(s).reject
    assert rejections / reps > 0.05
    assert rejections / reps > 0.5  # empirically the test rejects nearly always


def test_fit_serialization_shape():
    rng = derive_substream(53)
    payload = fit_jacobi(Sample.from_values(rng.gamma(2.0, 1.0, 200))).to_dict()
    assert "lambda_hat" not in payload
    for key in ("gamma_hat", "se_gamma", "ci_gamma", "a", "c"):
        assert key in payload
    assert payload["c"] == JACOBI_C
