"""One-parameter estimation and testing for the cosh-type generalized Jacobi law.

The law has transform 1/cosh(s**gamma) with gamma in (0, 1/2].  With
c = log(e + sqrt(e^2 - 1)) = arccosh(e), the population censoring point is
a_* = c**(1/gamma), so gamma = log(c)/log(a_*) and the whole fit reduces to
the censoring point alone (the r = 0 case of the framework).

No exact sampler exists here; correctness rests on the population-moment
identities (m_1 = c*sinh(c)*gamma/(e^2*a_*)) and the generic asymptotics.
The variance expressions are not spelled out by the estimator maps
themselves; both come mechanically from the limit law of A,

    sqrt(n) * (A - a_*)  ->  N(0, (L_X(2 a_*) - e^-2) / m_1^2),

estimated by plug-in with the empirical transform, plus the delta method:
for the fit through d gamma/d a = -log(c)/(a * log(a)^2), and for the test
through the gradient of (m_1, a) -> m_1 - e^-2*c*sinh(c)*log(c)/(a*log(a))
combined with the 2x2 influence covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import LogDomainError
from .laplace_core import (
    E,
    Sample,
    censored_moments,
    check_regime,
    empirical_laplace,
    influence_rows,
    sample_covariance,
)
from .results import GofOutcome, make_gof_outcome, normal_quantile

#: the transform-level constant c with cosh(c) = e
JACOBI_C = math.log(E + math.sqrt(E**2 - 1.0))

#: smallest sample size accepted
MIN_SAMPLE = 10

#: |log A| below this means gamma_hat = log(c)/log(A) is undefined
LOG_ATOL = 1e-9


def jacobi_censoring_point(gamma: float) -> float:
    """Population censoring point c**(1/gamma)."""
    if not 0.0 < gamma <= 0.5:
        raise ValueError(f"index must be in (0, 0.5], got {gamma}")
    return JACOBI_C ** (1.0 / gamma)


def jacobi_population_m1(gamma: float) -> float:
    """Population first censored moment c*sinh(c)*gamma/(e^2*a_*)."""
    return JACOBI_C * math.sinh(JACOBI_C) * gamma / (E**2 * jacobi_censoring_point(gamma))


@dataclass(frozen=True)
class JacobiFit:
    gamma_hat: float
    se_gamma: float
    ci_gamma: tuple[float, float]
    a: float
    c: float
    n: int
    alpha: float
    diagnostics: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": "jacobi",
            "gamma_hat": self.gamma_hat,
            "se_gamma": self.se_gamma,
            "ci_gamma": list(self.ci_gamma),
            "a": self.a,
            "c": self.c,
            "n": self.n,
            "alpha": self.alpha,
            "diagnostics": list(self.diagnostics),
        }


def jacobi_index(a: float) -> float:
    """Index estimate gamma_hat = log(c)/log(A) at the censoring point A."""
    log_a = math.log(a)
    if abs(log_a) < LOG_ATOL:
        raise LogDomainError(f"censoring point {a!r} equals 1 within tolerance")
    return math.log(JACOBI_C) / log_a


def fit_jacobi(sample: Sample, alpha: float = 0.05) -> JacobiFit:
    """Estimate the index as gamma_hat = log(c)/log(A)."""
    check_regime(sample, MIN_SAMPLE)
    moments = censored_moments(sample, r_max=2)
    a = moments.a
    gamma_hat = jacobi_index(a)

    # plug-in variance of sqrt(n)*(A - a_*), then the delta method
    var_a = (float(empirical_laplace(sample, 2.0 * a)) - math.exp(-2.0)) / moments.m(1) ** 2
    dgamma_da = -math.log(JACOBI_C) / (a * math.log(a) ** 2)
    se = abs(dgamma_da) * math.sqrt(max(var_a, 0.0) / sample.n)

    flags = []
    if not 0.0 < gamma_hat <= 0.5:
        flags.append("gamma_out_of_range")
    z = normal_quantile(alpha)
    return JacobiFit(
        gamma_hat=gamma_hat,
        se_gamma=se,
        ci_gamma=(gamma_hat - z * se, gamma_hat + z * se),
        a=a,
        c=JACOBI_C,
        n=sample.n,
        alpha=alpha,
        diagnostics=tuple(flags),
    )


def jacobi_gof_gradient(m1: float, a: float) -> np.ndarray:
    """Gradient of (m1, a) -> m1 - e^-2*c*sinh(c)*log(c)/(a*log(a))."""
    k = math.exp(-2.0) * JACOBI_C * math.sinh(JACOBI_C) * math.log(JACOBI_C)
    return np.array([1.0, k * (math.log(a) + 1.0) / (a * math.log(a)) ** 2])


def gof_jacobi(sample: Sample, alpha: float = 0.05) -> GofOutcome:
    """Test the cosh-Jacobi hypothesis.

    T_n = sqrt(n) * (m_hat[1] - e^-2*c*sinh(c)*gamma_hat/A) vanishes in
    population via the m_1 identity; its variance comes from the analytic
    gradient above applied to the 2x2 influence covariance.
    """
    check_regime(sample, MIN_SAMPLE)
    moments = censored_moments(sample, r_max=2)
    a, m1 = moments.a, moments.m(1)
    statistic = math.sqrt(sample.n) * (
        m1 - math.exp(-2.0) * JACOBI_C * math.sinh(JACOBI_C) * jacobi_index(a) / a
    )
    grad = jacobi_gof_gradient(m1, a)
    cov = sample_covariance(influence_rows(sample, moments, k=1))
    sigma_hat = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    return make_gof_outcome("jacobi", statistic, sigma_hat, alpha, sample.n)
