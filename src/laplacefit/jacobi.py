"""One-parameter estimation and testing for the cosh-type generalized Jacobi law.

The law has transform 1/cosh(s**gamma) with gamma in (0, 1/2].  With
c = log(e + sqrt(e^2 - 1)) = arccosh(e), the population censoring point is
a_* = c**(1/gamma), so gamma = log(c)/log(a_*) and the whole fit reduces to
the censoring point alone (the r = 0 case of the framework).

No exact sampler exists here; correctness rests on the population-moment
identities (m_1 = c*sinh(c)*gamma/(e^2*a_*)) and the generic asymptotics.
The variance expressions are not spelled out by the estimator maps
themselves; both come mechanically from the influence rows of the limit law
and the delta method.  In the frame y = A*x the censoring point's row is
A * P~_0/m_tilde[1], so the fit's variance is b * S[0, 0] * b with
b = -log(c)/(log(A)^2 * m_tilde[1]).  The test statistic is
sqrt(n) * (m_tilde[1] - kappa*gamma_hat)/A with kappa = e^-2*c*sinh(c); its
row, with the 1/A factored out, is V~_1 + kappa*gamma_hat*(1 + 1/log(A)) * W~.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LogDomainError
from .laplace_core import E, Sample, censored_moments, check_regime, influence_map
from .results import Fit, GofOutcome, make_fit, make_gof_outcome

#: the transform-level constant c with cosh(c) = e
JACOBI_C = math.log(E + math.sqrt(E**2 - 1.0))

#: e^-2*c*sinh(c): in population m_tilde[1] = JACOBI_KAPPA * gamma
JACOBI_KAPPA = math.exp(-2.0) * JACOBI_C * math.sinh(JACOBI_C)

#: smallest sample size accepted
MIN_SAMPLE = 10

#: the fitted parameter: the index alone
PARAM_NAMES = ("gamma",)

#: |log A| below this means gamma_hat = log(c)/log(A) is undefined
LOG_ATOL = 1e-9


def jacobi_censoring_point(gamma: float) -> float:
    """Population censoring point c**(1/gamma)."""
    if not 0.0 < gamma <= 0.5:
        raise ValueError(f"index must be in (0, 0.5], got {gamma}")
    return JACOBI_C ** (1.0 / gamma)


def jacobi_population_m1(gamma: float) -> float:
    """Population first censored moment c*sinh(c)*gamma/(e^2*a_*)."""
    return JACOBI_KAPPA * gamma / jacobi_censoring_point(gamma)


def jacobi_index(a: float) -> float:
    """Index estimate gamma_hat = log(c)/log(A) at the censoring point A."""
    log_a = math.log(a)
    if abs(log_a) < LOG_ATOL:
        raise LogDomainError(f"censoring point {a!r} equals 1 within tolerance")
    return math.log(JACOBI_C) / log_a


def fit_jacobi(sample: Sample, alpha: float = 0.05) -> Fit:
    """Estimate the index as gamma_hat = log(c)/log(A)."""
    check_regime(sample, MIN_SAMPLE)
    moments = censored_moments(sample)
    a = moments.a
    gamma_hat = jacobi_index(a)

    # the censoring point's influence row through d gamma / d a = -log(c)/(a*log(a)^2)
    b = -math.log(JACOBI_C) / (math.log(a) ** 2 * moments.m_tilde[1])
    cov = np.array([[b * moments.cov[0, 0] * b]])

    flags = []
    if not 0.0 < gamma_hat <= 0.5:
        flags.append("gamma_out_of_range")
    return make_fit(
        "jacobi", PARAM_NAMES, (gamma_hat,), cov, a, sample.n, alpha, flags, {"c": JACOBI_C}
    )


def gof_jacobi(sample: Sample, alpha: float = 0.05) -> GofOutcome:
    """Test the cosh-Jacobi hypothesis.

    T_n = sqrt(n) * (m_hat[1] - e^-2*c*sinh(c)*gamma_hat/A) vanishes in
    population via the m_1 identity; its variance applies the gradient of
    (m_1, A) to the covariance of the influence rows (V_1, W).
    """
    check_regime(sample, MIN_SAMPLE)
    moments = censored_moments(sample)
    a = moments.a
    gamma_hat = jacobi_index(a)
    statistic = math.sqrt(sample.n) * (moments.m_tilde[1] - JACOBI_KAPPA * gamma_hat) / a
    lmap, _ = influence_map(moments, k=1)
    row = np.array([1.0, JACOBI_KAPPA * gamma_hat * (1.0 + 1.0 / math.log(a))]) @ lmap
    sigma_hat = math.sqrt(max(float(row @ moments.cov @ row), 0.0)) / a
    return make_gof_outcome("jacobi", statistic, sigma_hat, alpha, sample.n)
