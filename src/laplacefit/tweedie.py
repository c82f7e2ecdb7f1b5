"""Estimation and goodness-of-fit testing for the Tweedie law.

Three censored moments and the censoring point determine the parameter triple
in closed form through the map ``h`` below; its population version recovers
(gamma, lam, theta) exactly from the theoretical censored moments.  Data in
other units map (m1, m2, m3, a) to (c*m1, c^2*m2, c^3*m3, a/c), which leaves
gamma and the test statistic unchanged and takes (lam, theta) to
(lam*c**gamma, theta/c).  So ``h`` and its 3x4 Jacobian are taken at the
unit-free point (m~1, m~2, m~3, 1): no raw moment is formed.  The Jacobian is
the complex step Im h(v + i*t*e_j)/t (Squire & Trapp 1998): with no
subtraction there is no cancellation, so a tiny fixed t gives every entry to
working precision and there is no step to tune.

Caveat: at the stable submodel boundary theta = 0 the Jacobian entries that
involve theta**gamma are singular, so a theta_hat very near zero inflates the
variance estimates.  That submodel is exactly the positive stable family;
prefer :func:`laplacefit.fit_ps` there.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ComplexPowerError, LaplaceFitError, NearSingularError, refuse
from .laplace_core import E, Batch, columns, influence_map, quadratic_form, row_errors
from .results import Family, FitBatch, GofBatch, make_fit, make_gof_outcome

#: smallest sample size accepted by the Tweedie fit
MIN_SAMPLE = 50

#: the fitted parameters, in the order of every estimate and interval tuple
PARAM_NAMES = ("gamma", "lambda", "theta")

#: relative threshold below which an aggregate is treated as singular
SINGULAR_RTOL = 1e-8

#: relative threshold below which a near-singular diagnostic flag is set
SINGULAR_FLAG_RTOL = 1e-6

#: imaginary step of the complex-step derivatives
COMPLEX_STEP = 1e-100


# ---------------------------------------------------------------------------
# the estimator map


def psi_phi(m1: float, m2: float, m3: float) -> tuple[float, float, float]:
    """The moment aggregates (psi, phi_inv, phi_exp).

    ``psi`` is the raw aggregate (m3 - e^2 m1^3)/(m1 m2 - e m1^3) - 2e - m2/m1^2,
    ``phi_inv`` its reciprocal (the factor in the estimators) and ``phi_exp``
    the exponent 1 - (m2/m1^2 - e)/psi, which equals the fitted index.
    """
    psi = (m3 - E**2 * m1**3) / (m1 * m2 - E * m1**3) - 2.0 * E - m2 / m1**2
    return psi, 1.0 / psi, 1.0 - (m2 / m1**2 - E) / psi


def _h(v: np.ndarray) -> np.ndarray:
    # raw estimator map (m1, m2, m3, a) -> (gamma, lam, theta) on the first
    # axis, any batch axes after it; no guards, and analytic so that it takes
    # complex steps: |gamma| is gamma times the sign of its real part
    m1, m2, m3, a = v
    _, phi_inv, _ = psi_phi(m1, m2, m3)
    gamma = 1.0 - (m2 / m1**2 - E) * phi_inv
    theta = -a + phi_inv / m1
    lam = E * m1 / (gamma * np.copysign(1.0, gamma.real)) * (theta + a) ** (1.0 - gamma)
    return np.array([gamma, lam, theta])


def _complex_step(f: Callable[[np.ndarray], np.ndarray], point: np.ndarray, value: np.ndarray) -> np.ndarray:
    # derivative of f at point (4, R) along each coordinate, on a new axis
    # after f's value axes: Im f(point + i*t*e_j)/t, one call on the 4 points.
    # Where value (f's real value at point, or a multiple of it) is not finite
    # the derivative is NaN: complex powers take a finite branch value there
    displaced = point[:, None] + 1j * COMPLEX_STEP * np.eye(4)[..., None]
    slope = f(displaced).imag / COMPLEX_STEP
    return np.where(np.isfinite(value)[..., None, :], slope, np.nan)


def singular_rows(m_tilde: np.ndarray, errors: list[LaplaceFitError | None]) -> np.ndarray:
    """Refuse the rows whose moments sit at a pole of the estimator map.

    The poles are those of psi: m1*m2 - e*m1^3 = 0 and psi = 0.  The
    aggregates m2/m1^2 and (m3 - e^2*m1^3)/(m1*m2 - e*m1^3) do not depend on
    the data's units, nor do the relative thresholds, so all are taken on the
    normalized moments ``m_tilde`` (R, 5).  Returns the mask of rows close
    enough to a pole for the ``near_singular_psi`` flag.
    """
    m1, m2, m3 = m_tilde[:, 1], m_tilde[:, 2], m_tilde[:, 3]
    den = m1 * m2 - E * m1**3
    den_scale = np.maximum(np.abs(m1 * m2), E * np.abs(m1) ** 3)
    ratio = (m3 - E**2 * m1**3) / den
    psi = ratio - 2.0 * E - m2 / m1**2
    psi_scale = np.abs(ratio) + 2.0 * E + np.abs(m2 / m1**2)
    refuse(
        errors, np.abs(den) < SINGULAR_RTOL * den_scale,
        lambda i: NearSingularError(
            f"|m1*m2 - e*m1^3| = {abs(den[i]):.3g} below {SINGULAR_RTOL:g} of scale "
            f"{den_scale[i]:.3g} (normalized moments); estimator map undefined"
        ),
    )
    refuse(
        errors, np.abs(psi) < SINGULAR_RTOL * psi_scale,
        lambda i: NearSingularError(
            f"|psi| = {abs(psi[i]):.3g} below {SINGULAR_RTOL:g} of scale {psi_scale[i]:.3g}"
        ),
    )
    return (np.abs(den) < SINGULAR_FLAG_RTOL * den_scale) | (
        np.abs(psi) < SINGULAR_FLAG_RTOL * psi_scale
    )


def _fit_point(
    batch: Batch,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[LaplaceFitError | None]]:
    # the unit-free point (m~1, m~2, m~3, 1), h there, the near-singular mask, errors
    errors = row_errors(batch, MIN_SAMPLE, constant="constant sample: moment aggregates are singular")
    near_singular = singular_rows(batch.m_tilde, errors)
    point = np.array([*batch.m_tilde[:, 1:4].T, np.ones(batch.a.size)])
    return point, _h(point), near_singular, errors


def fit_batch(batch: Batch, alpha: float = 0.05) -> FitBatch:
    """Fit the Tweedie law to every sample of a batch from its first three censored moments.

    At the unit-free point h gives (gamma_hat, lam~, theta~) = (gamma_hat,
    lambda_hat*A**gamma_hat, theta_hat/A), and its Jacobian J acts on the
    normalized rows L @ P~ of :func:`influence_map`.  The shear V subtracts
    lam~*log(A) times the gamma row from the lambda row: the unit-free
    covariance estimate is (V J L) @ S @ (V J L).T, and the units that take
    it to (gamma_hat, lambda_hat, theta_hat) are (1, A**-gamma_hat, A).
    No estimate is clamped into the parameter
    space, out-of-range values only set diagnostics flags so that downstream
    summaries stay unbiased.
    """
    a = batch.a
    with np.errstate(all="ignore"):
        point, value, near_singular, errors = _fit_point(batch)
        gamma_hat, lam_tilde, theta_tilde = value
        jac = np.ascontiguousarray(np.moveaxis(_complex_step(_h, point, value), -1, 0))
        rows_map = jac @ influence_map(batch.m_tilde, k=3)
        singular = ~np.isfinite(rows_map).all(axis=(1, 2))
        rows_map[:, 1] -= (lam_tilde * np.log(a))[:, None] * rows_map[:, 0]
        cov = rows_map @ batch.cov @ rows_map.transpose(0, 2, 1)
        units = columns(np.ones(a.size), a**-gamma_hat, a)
        est = columns(gamma_hat, lam_tilde, theta_tilde) * units
    cov[singular] = np.nan
    flags = {
        "near_singular_psi": near_singular,
        "gamma_out_of_range": (gamma_hat > 1.0) | (gamma_hat == 0.0),
        "theta_negative": theta_tilde < 0.0,
        "nonfinite_estimate": ~np.isfinite(est).all(axis=1),
    }
    return make_fit("tweedie", PARAM_NAMES, est, cov, units, a, batch.n, alpha, flags, errors)


def _gof_map(v: np.ndarray) -> np.ndarray:
    # (m1, m2, m3, a) -> -(1 - a*m1*psi)**phi - (psi - m2/m1^2)/e, which is the
    # centered value whose sqrt(n)-scaled plug-in version is the test statistic
    m1, m2, m3, a = v
    psi, _, phi_exp = psi_phi(m1, m2, m3)
    return -((1.0 - a * m1 * psi) ** phi_exp) - (psi - m2 / m1**2) / E


def gof_batch(batch: Batch, alpha: float = 0.05) -> GofBatch:
    """Test the Tweedie hypothesis on every sample of a batch.

    The statistic is sqrt(n) * (1 - (theta_hat/(theta_hat+A))**gamma_hat
    - gamma_hat/(e*m_hat[1]*(theta_hat+A))), zero in population by the
    censoring-point identity.  It is unit-free: at the unit-free point it
    reads sqrt(n) * (1 - (theta~/(theta~+1))**gamma_hat
    - gamma_hat/(e*m~1*(theta~+1))), and the complex-step gradient of the
    underlying moment map there acts on the normalized influence rows.
    """
    with np.errstate(all="ignore"):
        point, (gamma_hat, _, theta_tilde), _, errors = _fit_point(batch)
        base = theta_tilde / (theta_tilde + 1.0)
        refuse(
            errors, (base < 0.0) & (gamma_hat != np.round(gamma_hat)),
            lambda i: ComplexPowerError(
                f"power base theta_hat/(theta_hat+A) = {base[i]:.3g} is negative with "
                f"non-integer exponent {gamma_hat[i]:.3g}"
            ),
        )
        statistic = math.sqrt(batch.n) * (
            1.0 - base**gamma_hat - gamma_hat / (E * point[0] * (theta_tilde + 1.0))
        )
        # the statistic is sqrt(n) times _gof_map at the point
        beta = _complex_step(_gof_map, point, statistic).T.copy()
        row = (beta[:, None, :] @ influence_map(batch.m_tilde, k=3))[:, 0]
        sigma_hat = np.sqrt(np.maximum(quadratic_form(row, batch.cov), 0.0))
    refuse(
        errors, ~(np.isfinite(statistic) & np.isfinite(sigma_hat)),
        lambda i: ComplexPowerError(
            "test statistic or its variance is not finite at the plug-in point"
        ),
    )
    return make_gof_outcome("tweedie", statistic, sigma_hat, alpha, batch.n, errors)


FAMILY = Family("tweedie", PARAM_NAMES, ("tw", "tw0"), fit_batch, gof_batch)

#: one sample's fit and test
fit_tweedie, gof_tweedie = FAMILY.fit, FAMILY.gof
