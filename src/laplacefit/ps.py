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

import numpy as np

from .laplace_core import E, Batch, columns, quadratic_form, row_errors
from .results import Family, FitBatch, GofBatch, make_fit, make_gof_outcome

#: smallest sample size accepted by the positive stable fit
MIN_SAMPLE = 10

#: the fitted parameters, in the order of every estimate and interval tuple
PARAM_NAMES = ("gamma", "lambda")


def fit_batch(batch: Batch, alpha: float = 0.05) -> FitBatch:
    """Fit the positive stable law to every sample of a batch by censored moments.

    The influence rows of (gamma_hat, lambda_hat/lambda_hat) are
    B @ (P~_0, P~_1) with B = [[0, e], [-e, -e*log(A)]], so the unit-free
    covariance estimate is B @ S @ B.T and the units are (1, lambda_hat);
    standard errors are units * sqrt(diag/n) and intervals use the normal
    quantile.

    A constant sample is the degenerate boundary case gamma = 1: the point
    estimates are still emitted (with a zero covariance and the
    ``degenerate_sample`` flag) so that the boundary is visible rather than
    an error.
    """
    errors = row_errors(batch, MIN_SAMPLE)
    a = batch.a
    with np.errstate(all="ignore"):
        gamma_hat = E * batch.m_tilde[:, 1]
        lambda_hat = a**-gamma_hat
        b = np.zeros((a.size, 2, 2))
        b[:, 0, 1] = E
        b[:, 1, 0] = -E
        b[:, 1, 1] = -E * np.log(a)
        cov = b @ batch.cov[:, :2, :2] @ b.transpose(0, 2, 1)
    cov[batch.constant] = 0.0
    flags = {
        # the positive stable law has no atom at zero
        "zero_values_present": batch.zero_count > 0,
        "gamma_out_of_range": (gamma_hat > 1.0) | (gamma_hat <= 0.0),
        "degenerate_sample": batch.constant,
    }
    units = columns(np.ones(a.size), lambda_hat)
    return make_fit(
        "ps", PARAM_NAMES, columns(gamma_hat, lambda_hat), cov, units, a, batch.n, alpha, flags, errors
    )


def gof_batch(batch: Batch, alpha: float = 0.05) -> GofBatch:
    """Test the positive stable hypothesis via T_n = sqrt(n)*(A*m_hat[2] - m_hat[1]).

    In the normalized frame T_n = sqrt(n)*(m_tilde[2] - m_tilde[1])/A, with
    influence row b @ (P~_0, P~_1, P~_2)/A,
    b = ((m_tilde[3] - 2*m_tilde[2])/m_tilde[1], 1, -1).
    """
    errors = row_errors(batch, MIN_SAMPLE, constant="constant sample: test variance is zero")
    a, m = batch.a, batch.m_tilde
    with np.errstate(all="ignore"):
        statistic = math.sqrt(batch.n) * (m[:, 2] - m[:, 1]) / a
        b = columns((m[:, 3] - 2.0 * m[:, 2]) / m[:, 1], np.ones(a.size), np.full(a.size, -1.0))
        sigma_hat = np.sqrt(np.maximum(quadratic_form(b, batch.cov[:, :3, :3]), 0.0)) / a
    return make_gof_outcome("ps", statistic, sigma_hat, alpha, batch.n, errors)


FAMILY = Family("ps", PARAM_NAMES, ("ps",), fit_batch, gof_batch)

#: one sample's fit and test; a constant sample's fit also warns
fit_ps, gof_ps = FAMILY.fit, FAMILY.gof
