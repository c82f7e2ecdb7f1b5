"""Estimation and goodness-of-fit testing for the positive stable law.

The censoring point satisfies a_* = lam**(-1/gamma) at the population level,
which turns the first censored moment into an explicit estimator pair:
gamma_hat = e * m_hat[1] * A and lambda_hat = A**(-gamma_hat).  The test
statistic exploits the population identity m_1 = a_* m_2.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateSampleError
from .laplace_core import (
    E,
    CensoredMomentSet,
    Sample,
    censored_moments,
    check_regime,
)
from .results import Fit, GofOutcome, make_fit, make_gof_outcome

#: smallest sample size accepted by the positive stable fit
MIN_SAMPLE = 10

#: the fitted parameters, in the order of every estimate and interval tuple
PARAM_NAMES = ("gamma", "lambda")


def ps_point_estimates(moments: CensoredMomentSet) -> tuple[float, float]:
    """Map (m_hat[1], A) to (gamma_hat, lambda_hat)."""
    gamma_hat = E * moments.m(1) * moments.a
    return gamma_hat, moments.a**-gamma_hat


def fit_ps(sample: Sample, alpha: float = 0.05) -> Fit:
    """Fit the positive stable law by censored moments.

    The covariance estimate is the sample covariance of the per-observation
    rows (A*X*exp(1-A*X), -lambda_hat*exp(1-A*X)*(X*A*log(A) + 1)); standard
    errors are sqrt(diag/n) and intervals use the normal quantile.

    A constant sample is the degenerate boundary case gamma = 1: the point
    estimates are still emitted (with a zero covariance and a warning) so that
    the boundary is visible rather than an error.
    """
    check_regime(sample, MIN_SAMPLE)
    # the positive stable law has no atom at zero
    flags = ["zero_values_present"] if sample.zero_count > 0 else []
    moments = censored_moments(sample)
    gamma_hat, lambda_hat = ps_point_estimates(moments)
    if gamma_hat > 1.0 or gamma_hat <= 0.0:
        flags.append("gamma_out_of_range")

    x = sample.values
    tilt = np.exp(1.0 - moments.a * x)
    rows_gamma = moments.a * x * tilt
    rows_lambda = -lambda_hat * tilt * (x * moments.a * math.log(moments.a) + 1.0)
    if sample.constant:
        flags.append("degenerate_sample")
        warnings.warn(
            "constant sample: point estimates are the gamma = 1 boundary and "
            "the covariance rows are constant",
            stacklevel=2,
        )
        cov = np.zeros((2, 2))
    else:
        cov = np.cov(np.stack([rows_gamma, rows_lambda]), ddof=1)

    return make_fit(
        "ps", PARAM_NAMES, (gamma_hat, lambda_hat), cov, moments.a, sample.n, alpha, flags
    )


def gof_ps(sample: Sample, alpha: float = 0.05) -> GofOutcome:
    """Test the positive stable hypothesis via T_n = sqrt(n)*(A*m_hat[2] - m_hat[1]).

    The variance is estimated from the per-observation terms
    Z_i = exp(-A*X_i) * ((A*m_hat[3] - 2*m_hat[2]) / m_hat[1] + X_i*(1 - A*X_i)).
    """
    check_regime(sample, MIN_SAMPLE)
    if sample.constant:
        raise DegenerateSampleError("constant sample: test variance is zero")
    moments = censored_moments(sample)
    a, m1, m2, m3 = moments.a, moments.m(1), moments.m(2), moments.m(3)
    statistic = math.sqrt(sample.n) * (a * m2 - m1)

    x = sample.values
    weights = np.exp(-a * x)
    live = weights > 0.0
    z_terms = np.zeros(sample.n)
    z_terms[live] = weights[live] * (
        (a * m3 - 2.0 * m2) / m1 + x[live] * (1.0 - a * x[live])
    )
    sigma_hat = float(z_terms.std(ddof=1))
    return make_gof_outcome("ps", statistic, sigma_hat, alpha, sample.n)
