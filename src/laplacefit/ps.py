"""Estimation and goodness-of-fit testing for the positive stable law.

The censoring point satisfies a_* = lam**(-1/gamma) at the population level,
which turns the first censored moment into an explicit estimator pair:
gamma_hat = e * m_hat[1] * A = e * m_tilde[1] and lambda_hat = A**(-gamma_hat).
The test statistic exploits the population identity m_1 = a_* m_2.  Every
map below reads the normalized moments m_tilde, and its influence rows act on
their covariance S, so gamma_hat, the standard errors relative to the
estimates and the test do not depend on the data's units.
"""

from __future__ import annotations

import math

import numpy as np

from .laplace_core import E, Batch, columns
from .results import Errors, Family

#: the fitted parameters, in the order of every estimate and interval tuple
PARAM_NAMES = ("gamma", "lambda")


def fit_map(batch: Batch, errors: Errors) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Fit the positive stable law to every sample of a batch by censored moments.

    The influence rows of (gamma_hat, lambda_hat/lambda_hat) are
    B @ (P~_0, P~_1) with B = [[0, e], [-e, -e*log(A)]]; the map returns B
    and the units (1, lambda_hat).

    A constant sample is the degenerate boundary case gamma = 1: the point
    estimates are still emitted (with zero rows, so a zero covariance, and the
    ``degenerate_sample`` flag) so that the boundary is visible rather than
    an error.
    """
    a = batch.a
    gamma_hat = E * batch.m_tilde[:, 1]
    lambda_hat = a**-gamma_hat
    b = np.zeros((a.size, 2, 2))
    b[:, 0, 1] = E
    b[:, 1, 0] = -E
    b[:, 1, 1] = -E * np.log(a)
    b[batch.constant] = 0.0
    flags = {
        # the positive stable law has no atom at zero
        "zero_values_present": batch.zero_count > 0,
        "gamma_out_of_range": (gamma_hat > 1.0) | (gamma_hat <= 0.0),
        "degenerate_sample": batch.constant,
    }
    return columns(gamma_hat, lambda_hat), b, columns(np.ones(a.size), lambda_hat), flags


def gof_map(batch: Batch, errors: Errors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test the positive stable hypothesis via T_n = sqrt(n)*(A*m_hat[2] - m_hat[1]).

    In the normalized frame T_n = sqrt(n)*(m_tilde[2] - m_tilde[1])/A, with
    influence row b @ (P~_0, P~_1, P~_2)/A,
    b = ((m_tilde[3] - 2*m_tilde[2])/m_tilde[1], 1, -1): the map returns b
    and the scale A.
    """
    a, m = batch.a, batch.m_tilde
    statistic = math.sqrt(batch.n) * (m[:, 2] - m[:, 1]) / a
    b = columns((m[:, 3] - 2.0 * m[:, 2]) / m[:, 1], np.ones(a.size), np.full(a.size, -1.0))
    return statistic, b, a


FAMILY = Family(
    "ps", PARAM_NAMES, ("ps",), fit_map, gof_map, min_sample=10,
    gof_constant="constant sample: test variance is zero",
)

#: one sample's fit and test; a constant sample's fit also warns
fit_ps, gof_ps = FAMILY.fit, FAMILY.gof
