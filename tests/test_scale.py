"""Data in any units within the float range: the error contract under X -> 10**k X.

Every ps and Jacobi fit and test of a scaled sample returns all-finite floats
or raises a ``LaplaceFitError``, never a builtin error or a silent NaN or inf;
here every sample whose values stay finite is fitted and tested.  The ps
gamma_hat and z equal the unscaled sample's, evaluated from their definitions
at the scaled censoring point.  Tweedie is left out: its finite-difference
Jacobian takes an absolute step on the raw moments, so its standard errors
still depend on the data's units.
"""

import math

import numpy as np
import pytest

from laplacefit import (
    DistributionSpec,
    Sample,
    derive_substream,
    fit_jacobi,
    fit_ps,
    gof_jacobi,
    gof_ps,
    sample_spec,
)
from laplacefit.errors import SampleValidationError

#: spec -> sample size of the scaled inputs
INPUTS = {"ps:0.5,15": 500, "tw0:1,1,0.1": 1000}

SCALES = range(-300, 301, 50)


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


@pytest.mark.parametrize(
    "spec,k",
    # the ps sample times 1e300 overflows to inf and is refused (above)
    [(spec, k) for spec in INPUTS for k in SCALES if (spec, k) != ("ps:0.5,15", 300)],
)
def test_ps_gamma_and_z_are_scale_free(spec, k):
    x = draw(spec)
    sample = Sample.from_values(x * 10.0**k)
    fit, outcome = fit_ps(sample), gof_ps(sample)
    gamma_ref, z_ref = ps_reference(x, fit.a * 10.0**k)
    assert fit.estimates[0] == pytest.approx(gamma_ref, rel=1e-9)
    assert outcome.z == pytest.approx(z_ref, rel=1e-9)
