"""Estimation and goodness-of-fit testing for the positive stable law.

The censoring point satisfies a_* = lam**(-1/gamma) at the population level,
which turns the first censored moment into an explicit estimator pair:
gamma_hat = e * m_hat[1] * A = e * m_tilde[1] and lambda_hat = A**(-gamma_hat).
The test statistic exploits the population identity m_1 = a_* m_2.  Every
map below reads the normalized moments m_tilde and their covariance S, so
gamma_hat, the standard errors relative to the estimates and the test do not
depend on the data's units.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DegenerateSampleError
from .laplace_core import E, Sample, censored_moments, check_regime
from .results import Fit, GofOutcome, make_fit, make_gof_outcome

#: smallest sample size accepted by the positive stable fit
MIN_SAMPLE = 10

#: the fitted parameters, in the order of every estimate and interval tuple
PARAM_NAMES = ("gamma", "lambda")


def fit_ps(sample: Sample, alpha: float = 0.05) -> Fit:
    """Fit the positive stable law by censored moments.

    The influence rows of (gamma_hat, lambda_hat) are B @ (P~_0, P~_1) with
    B = [[0, e], [-e*lambda_hat, -e*lambda_hat*log(A)]], so the covariance
    estimate is B @ S @ B.T; standard errors are sqrt(diag/n) and intervals
    use the normal quantile.

    A constant sample is the degenerate boundary case gamma = 1: the point
    estimates are still emitted (with a zero covariance and a warning) so that
    the boundary is visible rather than an error.
    """
    check_regime(sample, MIN_SAMPLE)
    # the positive stable law has no atom at zero
    flags = ["zero_values_present"] if sample.zero_count > 0 else []
    moments = censored_moments(sample)
    gamma_hat = E * moments.m_tilde[1]
    lambda_hat = moments.a**-gamma_hat
    if gamma_hat > 1.0 or gamma_hat <= 0.0:
        flags.append("gamma_out_of_range")

    if sample.constant:
        flags.append("degenerate_sample")
        warnings.warn(
            "constant sample: point estimates are the gamma = 1 boundary and "
            "the covariance rows are constant",
            stacklevel=2,
        )
        cov = np.zeros((2, 2))
    else:
        b = np.array([[0.0, E], [-E * lambda_hat, -E * lambda_hat * math.log(moments.a)]])
        cov = b @ moments.cov[:2, :2] @ b.T

    return make_fit(
        "ps", PARAM_NAMES, (gamma_hat, lambda_hat), cov, moments.a, sample.n, alpha, flags
    )


def gof_ps(sample: Sample, alpha: float = 0.05) -> GofOutcome:
    """Test the positive stable hypothesis via T_n = sqrt(n)*(A*m_hat[2] - m_hat[1]).

    In the normalized frame T_n = sqrt(n)*(m_tilde[2] - m_tilde[1])/A, with
    influence row b @ (P~_0, P~_1, P~_2)/A,
    b = ((m_tilde[3] - 2*m_tilde[2])/m_tilde[1], 1, -1).
    """
    check_regime(sample, MIN_SAMPLE)
    if sample.constant:
        raise DegenerateSampleError("constant sample: test variance is zero")
    moments = censored_moments(sample)
    a, m = moments.a, moments.m_tilde
    statistic = math.sqrt(sample.n) * (m[2] - m[1]) / a
    b = np.array([(m[3] - 2.0 * m[2]) / m[1], 1.0, -1.0])
    sigma_hat = math.sqrt(max(float(b @ moments.cov[:3, :3] @ b), 0.0)) / a
    return make_gof_outcome("ps", statistic, sigma_hat, alpha, sample.n)
