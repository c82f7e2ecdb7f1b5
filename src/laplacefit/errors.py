"""Exception hierarchy.

Every error carries a short machine-readable ``code`` used by the CLI and by
the Monte Carlo harness when accounting for failed replicates.  Errors split
into two groups: input problems (bad files, malformed specs, invalid configs),
which derive from :class:`InputError`, and statistical regime problems (the
data or the fitted model leave the domain in which the estimators are
defined), which are every other error.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np


class LaplaceFitError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


# ---------------------------------------------------------------------------
# input errors (CLI exit code 1)


class InputError(LaplaceFitError, ValueError):
    """Base class of the errors in the input itself rather than in the statistical regime."""


class SampleValidationError(InputError):
    """A data value is NaN, negative or infinite; message is row-indexed."""

    code = "invalid_sample"


class SpecFormatError(InputError):
    """A distribution spec string could not be parsed or validated."""

    code = "spec_format"


class ConfigError(InputError):
    """A function argument or an experiment configuration (message: its field path) is invalid."""

    code = "config"


def _convert(name: str, kind: type, value: Any) -> Any:
    # int(value) or float(value) of a number; a string, anything else, and a bool
    # or a number with a fractional part where an integer is due, is a ConfigError
    # naming the field
    fractional = isinstance(value, (float, np.floating)) and not float(value).is_integer()
    try:
        if isinstance(value, str) or (kind is int and (fractional or isinstance(value, (bool, np.bool_)))):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name}: must be {what}, got {value!r}") from None


def _at_least(name: str, value: Any, low: int) -> int:
    # an integer field with a lower bound: a seed >= 0, a size, replication or jobs count >= 1
    number = _convert(name, int, value)
    if number < low:
        raise ConfigError(f"{name}: must be >= {low}, got {number}")
    return number


def _items(name: str, value: Any) -> tuple:
    # the entries of a list field; a bare string or a scalar is a ConfigError
    if isinstance(value, str):
        raise ConfigError(f"{name}: must be a list, got the string {value!r}")
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name}: must be a list, got {value!r}") from None


def _transform_argument(s: Any) -> np.ndarray:
    # the float array of a Laplace transform argument; a negative, NaN or complex entry is a ConfigError
    try:
        s_arr = np.array(np.nan) if np.iscomplexobj(s) else np.asarray(s, dtype=float)
    except (TypeError, ValueError):  # not numbers: refused below as a NaN
        s_arr = np.array(np.nan)
    if not np.all(s_arr >= 0.0):
        raise ConfigError(f"transform argument must be >= 0, got {s!r}")
    return s_arr


# ---------------------------------------------------------------------------
# statistical / regime errors (every other error; CLI exit code 2)


class AllZeroSampleError(LaplaceFitError):
    """Every observation is exactly zero, so the empirical transform has no root."""

    code = "all_zero_sample"


class RegimeError(LaplaceFitError):
    """The zero fraction (or the parameter point) is outside the supported regime.

    Raised when the observed zero fraction is >= 1/e, where the asymptotic
    covariance of the estimators is not available, or when a Tweedie parameter
    point has P(X=0) >= 1/e so no censoring point with transform level 1/e
    exists.
    """

    code = "regime"


class DegenerateSampleError(LaplaceFitError):
    """All observations are equal, or a test's variance estimate is zero."""

    code = "degenerate_sample"


class DegenerateMomentsError(LaplaceFitError):
    """A censored moment needed as a denominator is zero."""

    code = "degenerate_moments"


class InsufficientSampleError(LaplaceFitError):
    """Fewer observations than the family-specific minimum."""

    code = "insufficient_sample"


class NearSingularError(LaplaceFitError):
    """A moment aggregate sits too close to a pole of the estimator map."""

    code = "near_singular"


class ComplexPowerError(LaplaceFitError):
    """The fitted power base is negative with a non-integer exponent.

    The population base is theta/(theta + a) in [0, 1), so a negative base
    means the fitted model is far outside the Tweedie family; the statistic is
    reported as undefined rather than evaluated with complex powers.
    """

    code = "complex_power"


class LogDomainError(LaplaceFitError):
    """The censoring point equals 1 within tolerance, so log(A) vanishes."""

    code = "log_domain"


class TiltedRejectionInfeasibleError(LaplaceFitError):
    """Tilted-stable rejection (gamma != 1/2) expects more than MAX_TILT_WORK (2**24) proposals in the call."""

    code = "tilted_rejection_infeasible"


class InvalidRegimeError(LaplaceFitError):
    """A mean/zero-probability triple maps outside the compound-Poisson range."""

    code = "invalid_regime"


class UnsupportedOperationError(LaplaceFitError):
    """The requested closed form or sampler does not exist for this family."""

    code = "unsupported_operation"


def refuse(
    errors: list[LaplaceFitError | None], rows: np.ndarray, make: Callable[[int], LaplaceFitError]
) -> None:
    """Give each row ``i`` of the boolean mask ``rows`` with no error yet the error ``make(i)``.

    Batched fits and tests keep one error slot per row and call this once
    per check, in the order the checks are made, so each row keeps its
    first error.
    """
    for i in np.flatnonzero(rows).tolist():
        if errors[i] is None:
            errors[i] = make(i)
