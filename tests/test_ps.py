import math
import warnings

import numpy as np
import pytest

from laplacefit import (
    DistributionSpec,
    Sample,
    derive_substream,
    fit_ps,
    gof_ps,
    influence_map,
    sample_spec,
)
from laplacefit.errors import (
    DegenerateSampleError,
    InsufficientSampleError,
    RegimeError,
)

from numdiff_oracle import central_diff_jacobian

E = math.e


def ps_sample(gamma, lam, n, seed):
    spec = DistributionSpec("ps", (gamma, lam))
    return Sample.from_values(sample_spec(spec, derive_substream(seed), size=n))


# ---------------------------------------------------------------------------
# point estimates


def test_constant_sample_degenerate_boundary():
    k = 4.0
    with pytest.warns(UserWarning, match="constant sample"):
        fit = fit_ps(Sample.from_values([k] * 30))
    gamma_hat, lambda_hat = fit.estimates
    assert gamma_hat == pytest.approx(1.0, rel=1e-9)
    assert lambda_hat == pytest.approx(k, rel=1e-9)
    assert "degenerate_sample" in fit.diagnostics
    assert np.allclose(fit.cov_hat, 0.0)


def test_construction_identities_exact():
    s = ps_sample(0.5, 15.0, 500, seed=1)
    fit = fit_ps(s)
    a, m_tilde = s.batch.a[0], s.batch.m_tilde[0]
    gamma_hat, lambda_hat = fit.estimates
    assert gamma_hat == E * m_tilde[1]
    assert lambda_hat == a**-gamma_hat


def test_population_round_trip():
    for gamma in (0.3, 0.5, 0.8, 1.0):
        for lam in (0.5, 2.0, 15.0):
            a_star = lam ** (-1.0 / gamma)
            m1 = gamma / (E * a_star)
            gamma_hat = E * m1 * a_star
            lambda_hat = a_star**-gamma_hat
            assert gamma_hat == pytest.approx(gamma, rel=1e-12)
            assert lambda_hat == pytest.approx(lam, rel=1e-12)


def test_consistency_large_sample():
    gamma_hat, lambda_hat = fit_ps(ps_sample(0.5, 15.0, 10**5, seed=2)).estimates
    assert abs(gamma_hat - 0.5) < 0.02
    assert lambda_hat == pytest.approx(15.0, rel=0.05)


def test_scale_equivariance_power_of_two_exact():
    # scaling by a power of two scales every float in the solver trajectory
    # exactly, so A and gamma_hat are bitwise reproduced
    s = ps_sample(0.4, 5.0, 400, seed=3)
    k = 4.0
    scaled = Sample.from_values(s.values * k)
    fit, fit_scaled = fit_ps(s), fit_ps(scaled)
    (gamma_hat, lambda_hat), (gamma_scaled, lambda_scaled) = fit.estimates, fit_scaled.estimates
    assert fit_scaled.a == fit.a / k
    assert gamma_scaled == gamma_hat
    assert lambda_scaled == pytest.approx(lambda_hat * k**gamma_hat, rel=1e-12)


def test_scale_equivariance_general_factor():
    s = ps_sample(0.6, 20.0, 400, seed=4)
    k = 3.7
    fit, fit_scaled = fit_ps(s), fit_ps(Sample.from_values(s.values * k))
    (gamma_hat, lambda_hat), (gamma_scaled, lambda_scaled) = fit.estimates, fit_scaled.estimates
    assert fit_scaled.a == pytest.approx(fit.a / k, rel=1e-9)
    assert gamma_scaled == pytest.approx(gamma_hat, rel=1e-9)
    assert lambda_scaled == pytest.approx(lambda_hat * k**gamma_hat, rel=1e-8)


def test_covariance_rows_match_delta_method():
    # the closed-form rows must agree with the generic influence-times-Jacobian
    # construction once n is large (they coincide through m_1 = A m_2)
    s = ps_sample(0.5, 2.0, 10**5, seed=5)
    fit = fit_ps(s)
    a, m_tilde, cov = s.batch.a[0], s.batch.m_tilde[0], s.batch.cov[0]

    def h(v):
        m1, a = v
        g = E * m1 * a
        return np.array([g, a**-g])

    jac = central_diff_jacobian(h, [m_tilde[1] / a, a])
    lmap, scales = influence_map(m_tilde, k=1), np.array([1.0 / a, a])
    generic = (jac * scales) @ lmap
    cov_generic = generic @ cov @ generic.T
    assert np.allclose(fit.cov_hat, cov_generic, rtol=0.05)


def test_variance_estimator_consistency():
    # Monte Carlo variance of sqrt(n)*(gamma_hat - gamma) against the median
    # plug-in variance estimate
    n, reps = 10**4, 500
    gammas = np.empty(reps)
    sigma11 = np.empty(reps)
    for rep in range(reps):
        s = ps_sample(0.5, 2.0, n, seed=600 + rep)
        fit = fit_ps(s)
        gammas[rep] = fit.estimates[0]
        sigma11[rep] = fit.cov_hat[0, 0]
    mc_var = n * gammas.var(ddof=1)
    assert mc_var == pytest.approx(np.median(sigma11), rel=0.10)


def test_regime_and_size_guards():
    some_zeros = Sample.from_values([0.0] * 30 + list(np.linspace(0.5, 3.0, 70)))
    fit = fit_ps(some_zeros)  # p_hat = 0.3 < 1/e: proceeds with a flag
    assert "zero_values_present" in fit.diagnostics

    with pytest.raises(RegimeError):
        fit_ps(Sample.from_values([0.0] * 50 + [1.0] * 50))
    with pytest.raises(InsufficientSampleError):
        fit_ps(Sample.from_values([1.0] * 5))


def test_ci_contains_truth_typically():
    hits = 0
    for rep in range(40):
        fit = fit_ps(ps_sample(0.5, 2.0, 400, seed=900 + rep), alpha=0.05)
        lo, hi = fit.ci[0]
        hits += lo <= 0.5 <= hi
    assert hits >= 30


# ---------------------------------------------------------------------------
# goodness of fit


def test_gof_population_numerator_zero():
    # population identity m_1 = a_* m_2 makes the statistic's numerator vanish
    for gamma, lam in ((0.3, 2.0), (0.5, 15.0), (0.8, 1.0)):
        a_star = lam ** (-1.0 / gamma)
        m1 = gamma / (E * a_star)
        m2 = m1 / a_star
        assert a_star * m2 - m1 == pytest.approx(0.0, abs=1e-12)


def test_gof_null_distribution_smoke():
    outcome = gof_ps(ps_sample(0.5, 15.0, 2000, seed=6))
    assert 0.0 <= outcome.p_value <= 1.0
    assert outcome.reject == (outcome.p_value < 0.05)
    assert outcome.reject == (abs(outcome.z) > 1.959963984540054)


def test_gof_rejects_far_alternative():
    spec = DistributionSpec("pa", (5.0, 2.0))
    rejections = 0
    for rep in range(30):
        s = Sample.from_values(sample_spec(spec, derive_substream(700 + rep), size=300))
        rejections += gof_ps(s).reject
    assert rejections >= 25


def test_gof_constant_sample_degenerate():
    with pytest.raises(DegenerateSampleError):
        gof_ps(Sample.from_values([2.0] * 50))


def test_fit_serialization_keys():
    payload = fit_ps(ps_sample(0.5, 2.0, 200, seed=8)).to_dict()
    for key in ("gamma_hat", "lambda_hat", "se_gamma", "se_lambda", "ci_gamma", "ci_lambda", "a"):
        assert key in payload
    gof_payload = gof_ps(ps_sample(0.5, 2.0, 200, seed=8)).to_dict()
    for key in ("t_stat", "sigma_hat", "p_value"):
        assert key in gof_payload
