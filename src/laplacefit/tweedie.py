"""Estimation and goodness-of-fit testing for the Tweedie law.

Three censored moments and the censoring point determine the parameter triple
in closed form through the map ``h`` below; its population version recovers
(gamma, lam, theta) exactly from the theoretical censored moments.  The
asymptotic covariance uses the 3x4 Jacobian of ``h``, computed by central
finite differences rather than hand algebra (the Richardson property tests
bound the error).

Caveat: at the stable submodel boundary theta = 0 the Jacobian entries that
involve theta**gamma are singular, so a theta_hat very near zero inflates the
variance estimates.  That submodel is exactly the positive stable family;
prefer :func:`laplacefit.ps.fit_ps` there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, TweedieParams, laplace_exact
from .errors import ComplexPowerError, DegenerateSampleError, NearSingularError, RegimeError
from .laplace_core import (
    E,
    CensoredMomentSet,
    Sample,
    censored_moments,
    check_regime,
    influence_map,
)
from .numdiff import central_diff_gradient, central_diff_jacobian
from .results import Fit, GofOutcome, make_fit, make_gof_outcome

#: smallest sample size accepted by the Tweedie fit
MIN_SAMPLE = 50

#: the fitted parameters, in the order of every estimate and interval tuple
PARAM_NAMES = ("gamma", "lambda", "theta")

#: relative threshold below which an aggregate is treated as singular
SINGULAR_RTOL = 1e-8

#: relative threshold below which a near-singular diagnostic flag is set
SINGULAR_FLAG_RTOL = 1e-6


def tw_laplace(params: TweedieParams, s: float | np.ndarray) -> float | np.ndarray:
    return laplace_exact(DistributionSpec("tw", (params.gamma, params.lam, params.theta)), s)


def tw_censoring_point(params: TweedieParams) -> float:
    """Population censoring point a_* with L_X(a_*) = 1/e.

    Exists iff lam*theta**gamma > -sgn(gamma), which is exactly P(X=0) < 1/e;
    then a_* = (1/(sgn(gamma)*lam) + theta**gamma)**(1/gamma) - theta.
    """
    g, lam, th = params.gamma, params.lam, params.theta
    sg = math.copysign(1.0, g)
    if not lam * th**g > -sg:
        raise RegimeError(
            f"P(X=0) = {params.zero_probability:.3f} >= 1/e; no censoring point "
            "with transform level 1/e exists"
        )
    return (1.0 / (sg * lam) + th**g) ** (1.0 / g) - th


def tw_theoretical_censored_moments(
    params: TweedieParams, a: float
) -> tuple[float, float, float]:
    """Exact censored moments E[X**r * exp(-a*X)] for r = 1, 2, 3.

    Valid at any a > 0, not just at the censoring point:
    m1 = |gamma|*lam*L(a)*(theta+a)**(gamma-1) and the higher moments follow
    the recursion m2 = m1**2/L + m1*(1-gamma)/(theta+a),
    m3 = m1**3/L**2 + m1*(1-gamma)/(theta+a) * (3*m1/L + (2-gamma)/(theta+a)).
    """
    if not a > 0.0:
        raise ValueError("censoring point must be positive")
    g, lam, th = params.gamma, params.lam, params.theta
    lap = float(tw_laplace(params, a))
    m1 = abs(g) * lam * lap * (th + a) ** (g - 1.0)
    m2 = m1**2 / lap + m1 * (1.0 - g) / (th + a)
    m3 = m1**3 / lap**2 + m1 * (1.0 - g) / (th + a) * (3.0 * m1 / lap + (2.0 - g) / (th + a))
    return m1, m2, m3


# ---------------------------------------------------------------------------
# the estimator map


@dataclass(frozen=True)
class PsiPhi:
    """The two moment aggregates, disambiguated.

    ``psi_raw`` is the raw aggregate
    (m3 - e^2 m1^3)/(m1 m2 - e m1^3) - 2e - m2/m1^2; ``phi_inv`` is its
    reciprocal (the factor appearing in the estimators) and ``phi_exp`` is the
    exponent 1 - (m2/m1^2 - e)/psi_raw, which equals the fitted index.
    """

    psi_raw: float
    phi_inv: float
    phi_exp: float


def psi_phi(m1: float, m2: float, m3: float) -> PsiPhi:
    psi = (m3 - E**2 * m1**3) / (m1 * m2 - E * m1**3) - 2.0 * E - m2 / m1**2
    return PsiPhi(psi_raw=psi, phi_inv=1.0 / psi, phi_exp=1.0 - (m2 / m1**2 - E) / psi)


def _h(v: np.ndarray) -> np.ndarray:
    # raw estimator map (m1, m2, m3, a) -> (gamma, lam, theta); no guards so it
    # can be finite-differenced
    m1, m2, m3, a = v
    agg = psi_phi(m1, m2, m3)
    gamma = 1.0 - (m2 / m1**2 - E) * agg.phi_inv
    theta = -a + agg.phi_inv / m1
    lam = E * m1 / abs(gamma) * (theta + a) ** (1.0 - gamma)
    return np.array([gamma, lam, theta])


def _singularity_flags(m1: float, m2: float, m3: float) -> list[str]:
    # denominators of psi: m1*m2 - e*m1^3, and psi itself
    den = m1 * m2 - E * m1**3
    den_scale = max(abs(m1 * m2), E * abs(m1) ** 3)
    if abs(den) < SINGULAR_RTOL * den_scale:
        raise NearSingularError(
            f"|m1*m2 - e*m1^3| = {abs(den):.3g} below {SINGULAR_RTOL:g} of scale "
            f"{den_scale:.3g}; estimator map undefined"
        )
    psi = (m3 - E**2 * m1**3) / den - 2.0 * E - m2 / m1**2
    psi_scale = abs((m3 - E**2 * m1**3) / den) + 2.0 * E + abs(m2 / m1**2)
    if abs(psi) < SINGULAR_RTOL * psi_scale:
        raise NearSingularError(
            f"|psi| = {abs(psi):.3g} below {SINGULAR_RTOL:g} of scale {psi_scale:.3g}"
        )
    flags = []
    if abs(den) < SINGULAR_FLAG_RTOL * den_scale or abs(psi) < SINGULAR_FLAG_RTOL * psi_scale:
        flags.append("near_singular_psi")
    return flags


def estimates_from_moments(m1: float, m2: float, m3: float, a: float) -> tuple[np.ndarray, list[str]]:
    """Guarded estimator map and its flags; raises NearSingularError close to its poles."""
    flags = _singularity_flags(m1, m2, m3)
    with np.errstate(invalid="ignore"):
        return _h(np.array([m1, m2, m3, a])), flags


def _fit_point(sample: Sample) -> tuple[CensoredMomentSet, np.ndarray, list[str]]:
    check_regime(sample, MIN_SAMPLE)
    if sample.constant:
        raise DegenerateSampleError("constant sample: moment aggregates are singular")
    moments = censored_moments(sample)
    est, flags = estimates_from_moments(moments.m(1), moments.m(2), moments.m(3), moments.a)
    gamma_hat, lambda_hat, theta_hat = est
    if gamma_hat > 1.0 or gamma_hat == 0.0:
        flags.append("gamma_out_of_range")
    if theta_hat < 0.0:
        flags.append("theta_negative")
    if not np.isfinite(est).all():
        flags.append("nonfinite_estimate")
    return moments, est, flags


def fit_tweedie(sample: Sample, alpha: float = 0.05) -> Fit:
    """Fit the Tweedie law from the first three censored moments.

    The covariance estimate transforms the influence rows (V_1, V_2, V_3, W)
    by the Jacobian J of the estimator map at the plug-in point; with the
    rows' map L and scales D from :func:`influence_map` it is
    (J D L) @ S @ (J D L).T.  No estimate is clamped into the parameter
    space, out-of-range values only set diagnostics flags so that downstream
    summaries stay unbiased.
    """
    moments, est, flags = _fit_point(sample)
    plug_in = np.array([moments.m(1), moments.m(2), moments.m(3), moments.a])

    with np.errstate(invalid="ignore"):
        jac = central_diff_jacobian(_h, plug_in)
    lmap, scales = influence_map(moments, k=3)
    rows_map = (jac * scales) @ lmap
    if np.isfinite(rows_map).all():
        cov = rows_map @ moments.cov @ rows_map.T
    else:
        cov = np.full((3, 3), np.nan)
        if "nonfinite_estimate" not in flags:
            flags.append("nonfinite_covariance")

    return make_fit("tweedie", PARAM_NAMES, est, cov, moments.a, sample.n, alpha, flags)


def _gof_map(v: np.ndarray) -> float:
    # (m1, m2, m3, a) -> -(1 - a*m1*psi)**phi - (psi - m2/m1^2)/e, which is the
    # centered value whose sqrt(n)-scaled plug-in version is the test statistic
    m1, m2, m3, a = v
    agg = psi_phi(m1, m2, m3)
    return float(
        -((1.0 - a * m1 * agg.psi_raw) ** agg.phi_exp)
        - (agg.psi_raw - m2 / m1**2) / E
    )


def gof_tweedie(sample: Sample, alpha: float = 0.05) -> GofOutcome:
    """Test the Tweedie hypothesis.

    The statistic is sqrt(n) * (1 - (theta_hat/(theta_hat+A))**gamma_hat
    - gamma_hat/(e*m_hat[1]*(theta_hat+A))), zero in population by the
    censoring-point identity.  Its variance combines the influence rows with
    the finite-difference gradient of the underlying moment map.
    """
    moments, est, _ = _fit_point(sample)
    gamma_hat, _, theta_hat = est
    a, m1 = moments.a, moments.m(1)

    base = theta_hat / (theta_hat + a)
    if base < 0.0 and gamma_hat != round(gamma_hat):
        raise ComplexPowerError(
            f"power base theta_hat/(theta_hat+A) = {base:.3g} is negative with "
            f"non-integer exponent {gamma_hat:.3g}"
        )
    statistic = math.sqrt(sample.n) * (
        1.0 - base**gamma_hat - gamma_hat / (E * m1 * (theta_hat + a))
    )

    plug_in = np.array([m1, moments.m(2), moments.m(3), a])
    with np.errstate(invalid="ignore"):
        beta = central_diff_gradient(_gof_map, plug_in)
    lmap, scales = influence_map(moments, k=3)
    row = (beta * scales) @ lmap
    sigma_hat = math.sqrt(max(float(row @ moments.cov @ row), 0.0))
    if not math.isfinite(statistic) or not math.isfinite(sigma_hat):
        raise ComplexPowerError(
            "test statistic or its variance is not finite at the plug-in point"
        )
    return make_gof_outcome("tweedie", statistic, sigma_hat, alpha, sample.n)
