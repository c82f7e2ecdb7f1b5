"""Empirical Laplace transform, data-driven censoring point and censored moments.

The censoring point A solves L_n(A) = 1/e on the empirical transform
L_n(s) = mean(exp(-s*X_i)); a sample whose zero fraction reaches 1/e has no
such root and is refused.  One statistics pass then takes the censored
moments and the covariance of the power products in the frame y = A*x; every
estimator, standard error and test statistic in the package is a small map of
these.

The solve and the pass work along the last axis of an (R, n) block of R
samples, and ``summarise`` reduces such a block to a :class:`Batch`, the
input of every family map.  A single sample is a batch of one: it caches its
``summarise`` row, so its fit and test share one solve and one pass.
Reading a sample from a file is :mod:`laplacefit.ingest`, which builds on
this module and is never imported by it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    AllZeroSampleError,
    ConfigError,
    DegenerateMomentsError,
    DegenerateSampleError,
    InsufficientSampleError,
    LaplaceFitError,
    RegimeError,
    SampleValidationError,
    _transform_argument,
    refuse,
)

E = math.e

#: relative tolerance on |L_n(A) - 1/e|; the solver iterates until met
SOLVER_RTOL = 1e-12

#: hard cap on Newton iterations; samples spread across the whole float range
#: take up to about 40, samples of one law fewer than 10
SOLVER_MAX_ITER = 80

#: highest censored moment order; the Tweedie covariance reads m_tilde[4]
MAX_ORDER = 4


@dataclass(frozen=True)
class Sample:
    """Validated vector of non-negative observations and its cached statistics.

    ``batch`` is the sample as a batch of one, :func:`summarise` of its
    values, which every fit and test of the sample reads.  Frozen with a
    read-only array, so the cache (no n-length arrays) cannot go stale.
    """

    values: np.ndarray
    n: int
    zero_count: int

    @classmethod
    def from_values(cls, values: Iterable[float] | np.ndarray) -> "Sample":
        try:
            arr = np.asarray(values, dtype=float).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise SampleValidationError(f"sample values must be numbers ({exc})") from None
        if arr.size == 0:
            raise SampleValidationError("sample is empty")
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(np.argmax(bad))
            raise SampleValidationError(f"row {i + 1}: non-finite value {float(arr[i])!r}")
        neg = arr < 0.0
        if neg.any():
            i = int(np.argmax(neg))
            raise SampleValidationError(f"row {i + 1}: negative value {float(arr[i])!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(values=arr, n=int(arr.size), zero_count=int(np.count_nonzero(arr == 0.0)))

    @property
    def p_hat(self) -> float:
        """Observed fraction of exact zeros."""
        return self.zero_count / self.n

    @cached_property
    def batch(self) -> Batch:
        """The sample's row of :func:`summarise`, with the solve's error in ``errors[0]``."""
        return summarise(self.values[None])


# ---------------------------------------------------------------------------
# empirical transform and censoring point


def empirical_laplace(sample: Sample, s: float | np.ndarray) -> float | np.ndarray:
    """Empirical Laplace transform mean(exp(-s * X_i)); 1 at s = 0 and p_hat at s = inf."""
    s_arr = _transform_argument(s)
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN; its limit exp(-0) is 1
        terms = np.exp(-np.multiply.outer(s_arr, sample.values))
    out = _mean(np.nan_to_num(terms, copy=False, nan=1.0))
    return float(out) if s_arr.ndim == 0 else out


#: scale of a slope sum that overflows: fewer than 2**64 finite terms, each
#: times it, sum to a finite float
_SLOPE_SCALE = 2.0**-64


def _mean(values: np.ndarray) -> np.ndarray:
    # ndarray.mean along the last axis, bit for bit, without its Python overhead
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def positive_medians(x: np.ndarray, zero_count: np.ndarray) -> np.ndarray:
    """Median of the positive values of each row of ``x``.

    Sorted, a row's positive values follow its zeros, so one sort of the
    block gives every row's two middle positive values.  The even-count
    midpoint is lo/2 + hi/2, which, unlike (lo + hi)/2, cannot overflow.
    An all-zero row has no positive value and gets 0 as a placeholder.
    """
    positive = x.shape[-1] - zero_count
    hi_index = np.minimum(zero_count + positive // 2, x.shape[-1] - 1)
    lo_index = hi_index - 1 + positive % 2
    ordered = np.sort(x, axis=-1)
    rows = np.arange(x.shape[0])
    lo, hi = ordered[rows, lo_index], ordered[rows, hi_index]
    return np.where(lo_index == hi_index, hi, lo / 2.0 + hi / 2.0)


def solve_rows(
    x: np.ndarray, zero_count: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[LaplaceFitError | None]]:
    """Solve L_n(A) = 1/e for every row of the (R, n) block ``x``.

    Returns the (R,) arrays of each row's censoring point A, Newton
    iterations and residual L_n(A) - 1/e, and the rows' errors;
    :func:`summarise` keeps all of them in the :class:`Batch`.

    L_n is strictly decreasing from 1 to p_hat, so a root exists, and is
    unique, exactly when p_hat < 1/e; every other row, an all-zero one too,
    is refused with a :class:`RegimeError` before Newton runs.  L_n is a mean of exp(-s*x), so L_n - 1/e is also convex: each Newton
    step A <- A + f/mean(x*exp(-A*x)) lands at or left of the root, and from
    there the steps climb to it without overshooting.  The start A0 = 1/median
    (positive values) may lie right of the root, but its first step still
    lands in (0, A]: the step is positive when mean((1 + u)*exp(-u)) > 1/e
    with u = A0*x, and (1 + u)*exp(-u) >= 2/e at the positive values up to the
    median, at least half of them, while each zero contributes 1.  Newton stops
    at relative tolerance SOLVER_RTOL on the transform value.  The slope is
    sum(x*exp(-A*x))/n: the terms are summed undivided, so data far below unit
    scale do not turn them subnormal.  A row whose sum overflows, which takes
    terms near the float maximum, is summed again with its terms scaled by an
    exact power of two.

    Each row keeps to its own steps, so its result does not depend on the
    other rows, and records its error instead of raising it: a refused row,
    an iterate that is not a positive finite float (subnormal data make
    1/median infinite, and a root may lie beyond the float maximum), and a
    row still unsolved after SOLVER_MAX_ITER iterations.  A row with an error
    has a NaN censoring point.  Every step evaluates the whole block; a row out
    of the ``live`` mask keeps its A (a refused row its NaN start), and the
    last step gives its residual.
    """
    rows, n = x.shape
    c = 1.0 / E
    p_hat = zero_count / n
    errors: list[LaplaceFitError | None] = [None] * rows
    live = p_hat < c
    refuse(
        errors, ~live,
        lambda i: RegimeError(
            f"zero fraction {p_hat[i]:.3f} >= 1/e; the asymptotic covariance "
            "is not available in this regime"
        ),
    )
    iterations = np.zeros(rows, dtype=int)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ai = np.where(live, 1.0 / positive_medians(x, zero_count), math.nan)
        tolerance = SOLVER_RTOL * c
        for _ in range(SOLVER_MAX_ITER):
            weights = -ai[:, None] * x
            fi = _mean(np.exp(weights, out=weights)) - c
            live &= (0.0 < ai) & (ai < math.inf) & (np.abs(fi) > tolerance)
            if not live.any():
                break
            iterations += live
            moment = _mean(np.multiply(x, weights, out=weights))
            big = moment == math.inf
            if big.any():
                moment[big] = _mean(weights[big] * _SLOPE_SCALE) / _SLOPE_SCALE
            ai = np.where(live, ai + fi / moment, ai)
    failed = ~(live | (np.abs(fi) <= tolerance))
    a, f = np.where(failed | live, math.nan, ai), np.where(failed, math.nan, fi)
    iterations[failed] = 0
    refuse(
        errors, failed,
        lambda i: DegenerateSampleError(
            "censoring point leaves the float range: the positive values are "
            "too small for 1/median or the root to be a finite float"
        ),
    )
    refuse(
        errors, live,
        lambda i: DegenerateSampleError(
            f"censoring point solve stopped after {SOLVER_MAX_ITER} iterations "
            f"with residual {f[i]:.3g}"
        ),
    )
    return a, iterations, f, errors


# ---------------------------------------------------------------------------
# censored moments: the one statistics pass


def moments_rows(x: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The statistics pass for every row of ``x`` at its censoring point ``a[i]``.

    Returns the normalized moments m_tilde (R, MAX_ORDER + 1) and the power
    products' covariance (R, MAX_ORDER, MAX_ORDER).  The power products are
    built by repeated multiplication from exp(-y), never from y**r, which may
    overflow where exp(-y) underflows to zero; a zero weight times a finite y
    stays an exact zero.  A y = a*x that overflows is clamped to the largest
    float, which is exact: such an observation adds 0 to every moment.  The
    covariance is the centred two-pass form, which keeps its precision where
    E[PP^T] - mm^T would cancel.  The pass holds MAX_ORDER floats per value
    of ``x``.  A NaN ``a[i]`` carries through every step without a
    floating-point warning, so a row whose solve failed gets NaN statistics.
    """
    rows, n = x.shape
    with np.errstate(over="ignore"):
        y = a[:, None] * x
    np.minimum(y, sys.float_info.max, out=y)
    block = np.empty((rows, MAX_ORDER, n))
    np.exp(np.negative(y, out=block[:, 0]), out=block[:, 0])
    for r in range(1, MAX_ORDER):
        np.multiply(block[:, r - 1], y, out=block[:, r])
    m_tilde = np.empty((rows, MAX_ORDER + 1))
    m_tilde[:, :MAX_ORDER] = _mean(block)
    m_tilde[:, MAX_ORDER] = _mean(np.multiply(block[:, MAX_ORDER - 1], y, out=y))
    block -= m_tilde[:, :MAX_ORDER, None]
    with np.errstate(divide="ignore", invalid="ignore"):  # n = 1 has no covariance
        cov = block @ block.transpose(0, 2, 1) / (n - 1)
    return m_tilde, cov


# ---------------------------------------------------------------------------
# batches: the input of every fit and test


@dataclass(frozen=True)
class Batch:
    """R samples of n observations each, reduced to what every fit and test reads.

    Row i holds sample i's ``zero_count[i]``, whether its values are all
    equal (``constant[i]``), the record of its solve (the censoring point
    ``a[i]``, the Newton ``iterations[i]`` and the ``residual[i]``
    L_n(A) - 1/e) and, in the frame y = a[i]*x, the normalized moments
    ``m_tilde[i, r] = mean(y**r * exp(-y))`` for r <= MAX_ORDER and the
    ddof=1 covariance ``cov[i]`` of the power products y**r * exp(-y),
    r < MAX_ORDER.  Both are unit-free: a map built on them sees the data's
    scale only through a.  A row the solve refused (an all-zero one by its
    zero fraction), or failed to solve, has the error in ``errors[i]`` and a
    NaN ``a[i]``, so its statistics are NaN.
    """

    n: int
    zero_count: np.ndarray
    constant: np.ndarray
    a: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    m_tilde: np.ndarray
    cov: np.ndarray
    errors: list[LaplaceFitError | None]


def summarise(x: np.ndarray) -> Batch:
    """Solve and summarise every row of an (R, n) block of validated samples.

    One :func:`solve_rows` call and one :func:`moments_rows` pass over the
    whole block, which holds MAX_ORDER floats per value of ``x``.
    """
    zero_count = np.count_nonzero(x == 0.0, axis=-1)
    a, iterations, residual, errors = solve_rows(x, zero_count)
    m_tilde, cov = moments_rows(x, a)
    constant = x.max(axis=-1) == x.min(axis=-1)
    return Batch(x.shape[1], zero_count, constant, a, iterations, residual, m_tilde, cov, errors)


def row_errors(
    batch: Batch, min_n: int, constant: str | None = None
) -> list[LaplaceFitError | None]:
    """Each row's first error, in the order every fit and test checks them.

    An all-zero sample, the one :class:`AllZeroSampleError` of the package,
    fewer than ``min_n`` observations, a constant sample if ``constant``
    gives the message to refuse it with, then the solve's error, such as a
    zero fraction at or above 1/e (a constant sample with a zero is all zero).
    """
    rows = batch.zero_count.size
    errors: list[LaplaceFitError | None] = [None] * rows
    refuse(
        errors, batch.zero_count == batch.n,
        lambda i: AllZeroSampleError("all observations are zero"),
    )
    refuse(
        errors, np.full(rows, batch.n < min_n),
        lambda i: InsufficientSampleError(f"need at least {min_n} observations, got {batch.n}"),
    )
    if constant is not None:
        refuse(errors, batch.constant, lambda i: DegenerateSampleError(constant))
    return [mine if mine is not None else solve for mine, solve in zip(errors, batch.errors)]


def columns(*values: np.ndarray) -> np.ndarray:
    """The (R,) arrays ``values`` as the columns of a C-ordered (R, k) array."""
    return np.array(values).T.copy()


def influence_map(m_tilde: np.ndarray, k: int) -> np.ndarray:
    """Map from the power products to the normalized influence rows.

    Returns the (k+1) x MAX_ORDER matrix L with (V~_1, ..., V~_k, W~) = L @ P~,
    where V~_r = P~_r - m_tilde[r+1]/m_tilde[1] * P~_0 captures the censored
    moment m_tilde[r] and W~ = P~_0/m_tilde[1] the censoring point in the
    frame y = A*x, so the rows' covariance is L @ cov @ L.T.  Every map in the
    package reads the normalized statistics: the raw rows V_r = V~_r/A**r and
    W = A*W~ are never formed.  ``m_tilde`` holds the normalized moments on
    its last axis; for a batch's (R, MAX_ORDER + 1) array, L carries a
    leading row axis.
    """
    if not isinstance(k, int) or not 1 <= k <= MAX_ORDER - 1:
        raise ConfigError(f"k must be in 1..{MAX_ORDER - 1}, got {k!r}")
    if np.any(m_tilde[..., 1] == 0.0):
        raise DegenerateMomentsError("first censored moment is zero")
    lmap = np.zeros((*m_tilde.shape[:-1], k + 1, MAX_ORDER))
    lmap[..., :k, 0] = -m_tilde[..., 2 : k + 2] / m_tilde[..., 1, None]
    lmap[..., :k, 1 : k + 1] = np.eye(k)
    lmap[..., k, 0] = 1.0 / m_tilde[..., 1]
    return lmap
