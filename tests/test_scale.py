"""Data in any units within the float range: the error contract under X -> 10**k X.

Every ps and Jacobi fit and test of a scaled sample returns all-finite floats
or raises a ``LaplaceFitError``, never a builtin error or a silent NaN or inf;
here every sample whose values stay finite is fitted and tested.  The ps
gamma_hat and z equal the unscaled sample's, evaluated from their definitions
at the scaled censoring point.  The Tweedie fit and test read the unit-free
point (m_tilde, 1), so they are equivariant too: gamma_hat, se_gamma,
theta_hat*10**k, lambda_hat*10**(-k*gamma_hat) and z equal the unscaled
sample's, and so do se_theta*10**k and se_lambda*10**(-k*gamma_hat): the
units are applied after the square root, so a standard error is a positive
float wherever its estimate is.  Far from unit scale some of the numbers,
such as lambda_hat, can leave the float range; each Tweedie fit and test
returns or raises a ``LaplaceFitError``, and a fit with non-finite numbers
says so in its diagnostics.
"""

import math
import sys

import numpy as np
import pytest

from laplacefit import (
    DistributionSpec,
    Sample,
    derive_substream,
    fit_jacobi,
    fit_ps,
    fit_tweedie,
    gof_jacobi,
    gof_ps,
    gof_tweedie,
    sample_spec,
)
from laplacefit.errors import LaplaceFitError, SampleValidationError

#: spec -> sample size of the scaled inputs
INPUTS = {"ps:0.5,15": 500, "tw0:1,1,0.1": 1000, "ps:0.9,3": 500}

SCALES = range(-300, 301, 50)

#: every (spec, k) whose scaled values stay finite: the ps sample times 1e300
#: overflows to inf and is refused
FINITE_CASES = [(spec, k) for spec in INPUTS for k in SCALES if (spec, k) != ("ps:0.5,15", 300)]


def draw(spec: str) -> np.ndarray:
    return sample_spec(DistributionSpec.parse(spec), derive_substream(3), size=INPUTS[spec])


def payload_floats(payload: dict) -> list:
    out = []
    for value in payload.values():
        if isinstance(value, (list, tuple)):
            out.extend(v for v in np.ravel(value) if isinstance(v, float))
        elif isinstance(value, float):
            out.append(value)
    return out


def ps_reference(x: np.ndarray, a: float) -> tuple[float, float]:
    """gamma_hat and z of the ps fit and test at censoring point ``a``, from their definitions."""
    weights = np.exp(-a * x)
    m1, m2, m3 = (np.mean(x**r * weights) for r in (1, 2, 3))
    terms = weights * ((a * m3 - 2.0 * m2) / m1 + x * (1.0 - a * x))
    return math.e * a * m1, math.sqrt(x.size) * (a * m2 - m1) / terms.std(ddof=1)


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("spec", list(INPUTS))
def test_ps_and_jacobi_obey_the_error_contract(spec, k):
    x = draw(spec)
    with np.errstate(over="ignore"):
        scaled = x * 10.0**k
    for run in (fit_ps, gof_ps, fit_jacobi, gof_jacobi):
        if not np.isfinite(scaled).all():
            with pytest.raises(SampleValidationError):
                run(Sample.from_values(scaled))
            continue
        payload = run(Sample.from_values(scaled)).to_dict()
        assert all(math.isfinite(v) for v in payload_floats(payload)), (run.__name__, payload)


@pytest.mark.parametrize("spec,k", FINITE_CASES)
def test_ps_gamma_and_z_are_scale_free(spec, k):
    x = draw(spec)
    sample = Sample.from_values(x * 10.0**k)
    fit, outcome = fit_ps(sample), gof_ps(sample)
    gamma_ref, z_ref = ps_reference(x, fit.a * 10.0**k)
    assert fit.estimates[0] == pytest.approx(gamma_ref, rel=1e-9)
    assert outcome.z == pytest.approx(z_ref, rel=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("spec", list(INPUTS))
def test_tweedie_returns_or_raises_a_coded_error(spec, k):
    with np.errstate(over="ignore"):
        scaled = draw(spec) * 10.0**k
    for run in (fit_tweedie, gof_tweedie):
        try:
            payload = run(Sample.from_values(scaled)).to_dict()
        except LaplaceFitError:
            continue
        if not all(math.isfinite(v) for v in payload_floats(payload)):
            assert {"nonfinite_estimate", "nonfinite_covariance"} & set(payload["diagnostics"])


def tweedie_unit_free(x: np.ndarray, k: int) -> np.ndarray:
    """The Tweedie fit and test of x*10**k, each number taken back to the units of x.

    gamma_hat, se_gamma, theta_hat*10**k, se_theta*10**k, z and
    lambda_hat*10**(-k*gamma_hat).  se_lambda is not among them: the
    variance of lambda_hat = lam~*A**-gamma_hat carries log(A)**2 times that
    of gamma_hat, which depends on the units.
    """
    sample = Sample.from_values(x * 10.0**k)
    fit, outcome = fit_tweedie(sample), gof_tweedie(sample)
    gamma_hat, lambda_hat, theta_hat = fit.estimates
    return np.array([
        gamma_hat, fit.se[0], theta_hat * 10.0**k, fit.se[2] * 10.0**k, outcome.z,
        lambda_hat * 10.0 ** (-k * gamma_hat),
    ])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec,k", FINITE_CASES)
def test_tweedie_is_scale_equivariant(spec, k):
    x = draw(spec)
    scaled, unscaled = tweedie_unit_free(x, k), tweedie_unit_free(x, 0)
    # lambda_hat itself may leave the float range; the rest may not
    finite = np.isfinite(scaled)
    assert finite[:5].all() and np.isfinite(unscaled).all()
    assert scaled[finite] == pytest.approx(unscaled[finite], rel=1e-11)


def is_positive_normal(value: float) -> bool:
    return sys.float_info.min <= value < math.inf


@pytest.mark.parametrize("spec,k", FINITE_CASES)
def test_standard_errors_are_positive_floats(spec, k):
    # the units multiply the standard errors, not the covariance, so neither
    # overflows to inf or NaN nor underflows to 0 where its estimate is a float
    sample = Sample.from_values(draw(spec) * 10.0**k)
    for run in (fit_ps, fit_tweedie, fit_jacobi):
        try:
            fit = run(sample)
        except LaplaceFitError:
            continue
        for name, estimate, se in zip(fit.param_names, fit.estimates, fit.se):
            if is_positive_normal(abs(estimate)):
                assert is_positive_normal(se), (run.__name__, name, estimate, se)
        finite = np.isfinite(fit.se).all() and np.isfinite(fit.ci).all()
        assert ("nonfinite_covariance" in fit.diagnostics) == (not finite)
