"""One-parameter estimation and testing for the cosh-type generalized Jacobi law.

The law has transform 1/cosh(s**gamma) with gamma in (0, 1/2].  With
c = log(e + sqrt(e^2 - 1)) = arccosh(e), the population censoring point is
a_* = c**(1/gamma), so gamma = log(c)/log(a_*) and the whole fit reduces to
the censoring point alone (the r = 0 case of the framework).

No exact sampler exists here; correctness rests on the population-moment
identities (m_1 = c*sinh(c)*gamma/(e^2*a_*)) and the generic asymptotics.
The maps spell out no variance: each returns its influence rows, and
:class:`~laplacefit.results.Family` applies the delta method.  In the frame
y = A*x the censoring point's row is A * P~_0/m_tilde[1], so the fit's row
is b on P~_0 alone, b = -log(c)/(log(A)^2 * m_tilde[1]), and its variance
b * S[0, 0] * b.  The test statistic is
sqrt(n) * (m_tilde[1] - kappa*gamma_hat)/A with kappa = e^-2*c*sinh(c); its
row, with the 1/A factored out, is V~_1 + kappa*gamma_hat*(1 + 1/log(A)) * W~.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, LogDomainError, RegimeError, refuse
from .laplace_core import E, Batch, columns, influence_map
from .results import Errors, Family

#: the transform-level constant c with cosh(c) = e
JACOBI_C = math.log(E + math.sqrt(E**2 - 1.0))

#: e^-2*c*sinh(c): in population m_tilde[1] = JACOBI_KAPPA * gamma
JACOBI_KAPPA = math.exp(-2.0) * JACOBI_C * math.sinh(JACOBI_C)

#: the fitted parameter: the index alone
PARAM_NAMES = ("gamma",)

#: |log A| below this means gamma_hat = log(c)/log(A) is undefined
LOG_ATOL = 1e-9


def jacobi_censoring_point(gamma: float) -> float:
    """Population censoring point c**(1/gamma); RegimeError past the float maximum."""
    if not 0.0 < gamma <= 0.5:
        raise ConfigError(f"index must be in (0, 0.5], got {gamma}")
    try:
        return JACOBI_C ** (1.0 / gamma)
    except OverflowError:
        raise RegimeError(
            f"censoring point c**(1/gamma) at index {gamma} lies past the float maximum"
        ) from None


def jacobi_population_m1(gamma: float) -> float:
    """Population first censored moment c*sinh(c)*gamma/(e^2*a_*)."""
    return JACOBI_KAPPA * gamma / jacobi_censoring_point(gamma)


def _index(batch: Batch, errors: Errors) -> tuple[np.ndarray, np.ndarray]:
    # gamma_hat = log(c)/log(A) and log(A) per row; refuses log(A) near 0
    log_a = np.log(batch.a)
    refuse(
        errors, np.abs(log_a) < LOG_ATOL,
        lambda i: LogDomainError(f"censoring point {float(batch.a[i])!r} equals 1 within tolerance"),
    )
    return math.log(JACOBI_C) / log_a, log_a


def fit_map(batch: Batch, errors: Errors) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Estimate the index of every sample of a batch as gamma_hat = log(c)/log(A)."""
    gamma_hat, log_a = _index(batch, errors)
    # the censoring point's influence row through d gamma / d a = -log(c)/(a*log(a)^2)
    b = -math.log(JACOBI_C) / (log_a**2 * batch.m_tilde[:, 1])
    # 0 < gamma_hat <= 1/2 is A >= c**2, which, unlike log(c)/log(A), is exact at the boundary
    flags = {"gamma_out_of_range": ~(batch.a >= JACOBI_C**2)}
    return gamma_hat[:, None], b[:, None, None], np.ones((batch.a.size, 1)), flags


def gof_map(batch: Batch, errors: Errors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test the cosh-Jacobi hypothesis on every sample of a batch.

    T_n = sqrt(n) * (m_hat[1] - e^-2*c*sinh(c)*gamma_hat/A) vanishes in
    population via the m_1 identity; its influence row applies the gradient
    of (m_1, A) to the rows (V_1, W), and its scale is A.
    """
    a = batch.a
    gamma_hat, log_a = _index(batch, errors)
    statistic = math.sqrt(batch.n) * (batch.m_tilde[:, 1] - JACOBI_KAPPA * gamma_hat) / a
    coef = columns(np.ones(a.size), JACOBI_KAPPA * gamma_hat * (1.0 + 1.0 / log_a))
    return statistic, (coef[:, None, :] @ influence_map(batch.m_tilde, k=1))[:, 0], a


FAMILY = Family(
    "jacobi", PARAM_NAMES, ("jacobi",), fit_map, gof_map, min_sample=10,
    gof_constant="constant sample: test variance is zero", constants=(("c", JACOBI_C),),
)

#: one sample's fit and test
fit_jacobi, gof_jacobi = FAMILY.fit, FAMILY.gof
