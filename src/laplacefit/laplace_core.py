"""Empirical Laplace transform, data-driven censoring point and censored moments.

The censoring point A solves L_n(A) = c on the empirical transform
L_n(s) = mean(exp(-s*X_i)), where the target level c is exp(-1) unless the
observed zero fraction reaches 1/e, in which case the zero-adjusted level
(1 + (e-1)*p_hat)/e is used.  One statistics pass then takes the censored
moments and the covariance of the power products in the frame y = A*x; every
estimator, standard error and test statistic in the package is a small map of
these.  A sample caches them, so its fit and test share one solve and one pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    AllZeroSampleError,
    DegenerateMomentsError,
    DegenerateSampleError,
    InsufficientSampleError,
    RegimeError,
    SampleValidationError,
)

E = math.e

#: relative tolerance on |L_n(A) - c|; the solver iterates until met
SOLVER_RTOL = 1e-12

#: hard cap on safeguarded Newton/bisection iterations
SOLVER_MAX_ITER = 80

#: highest censored moment order; the Tweedie covariance reads m_tilde[4]
MAX_ORDER = 4


@dataclass(frozen=True)
class Sample:
    """Validated vector of non-negative observations with cached summaries.

    Frozen with a read-only array, so the caches (no n-length arrays) cannot
    go stale.
    """

    values: np.ndarray
    n: int
    zero_count: int

    @classmethod
    def from_values(cls, values: Iterable[float] | np.ndarray) -> "Sample":
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size == 0:
            raise SampleValidationError("sample is empty")
        bad = ~np.isfinite(arr)
        if bad.any():
            i = int(np.argmax(bad))
            raise SampleValidationError(f"row {i + 1}: non-finite value {arr[i]!r}")
        neg = arr < 0.0
        if neg.any():
            i = int(np.argmax(neg))
            raise SampleValidationError(f"row {i + 1}: negative value {arr[i]!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        return cls(values=arr, n=int(arr.size), zero_count=int(np.count_nonzero(arr == 0.0)))

    @property
    def p_hat(self) -> float:
        """Observed fraction of exact zeros."""
        return self.zero_count / self.n

    @property
    def all_zero(self) -> bool:
        return self.zero_count == self.n

    @cached_property
    def constant(self) -> bool:
        return bool(self.values.max() == self.values.min())

    @cached_property
    def moments(self) -> CensoredMomentSet:
        """The statistics pass at the solved censoring point.

        m_tilde[0] equals the target level up to the solver tolerance, because
        the solver and the pass sum exp(-A*X) the same way.
        """
        point = solve_censoring_point(self)
        return replace(censored_moments_at(self, point.a), c_target=point.c_target)

    def positive_median(self) -> float:
        if self.all_zero:
            raise AllZeroSampleError("no positive observations")
        # lo/2 + hi/2, unlike (lo + hi)/2, cannot overflow
        positive = self.values[self.values > 0.0]
        half = positive.size // 2
        part = np.partition(positive, (half - 1, half))
        if positive.size % 2:
            return float(part[half])
        return float(part[half - 1] / 2.0 + part[half] / 2.0)


def check_regime(sample: Sample, min_n: int) -> None:
    """Refuse samples outside the regime where the estimators and tests are defined.

    Raises on an all-zero sample, on fewer than ``min_n`` observations and on a
    zero fraction at or above 1/e, where the asymptotic covariance is not
    available.
    """
    if sample.all_zero:
        raise AllZeroSampleError("all observations are zero")
    if sample.n < min_n:
        raise InsufficientSampleError(f"need at least {min_n} observations, got {sample.n}")
    if sample.p_hat >= 1.0 / E:
        raise RegimeError(
            f"zero fraction {sample.p_hat:.3f} >= 1/e; the asymptotic covariance "
            "is not available in this regime"
        )


def parse_sample_lines(lines: Iterable[str]) -> Sample:
    """Parse newline-delimited decimal floats; blank lines are skipped."""
    out: list[float] = []
    for i, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise SampleValidationError(f"row {i}: cannot parse {token!r}") from None
        if math.isnan(value) or math.isinf(value):
            raise SampleValidationError(f"row {i}: non-finite value {token!r}")
        if value < 0.0:
            raise SampleValidationError(f"row {i}: negative value {token!r}")
        out.append(value)
    if not out:
        raise SampleValidationError("no data rows found")
    return Sample.from_values(out)


def parse_sample_csv(stream: TextIO, column: str) -> Sample:
    """Extract a named column from CSV text and validate it as a sample."""
    reader = csv.DictReader(stream)
    if reader.fieldnames is None or column not in reader.fieldnames:
        raise SampleValidationError(
            f"column {column!r} not found (have {reader.fieldnames})"
        )
    cells = []
    for i, row in enumerate(reader, start=2):  # row 1 is the header
        cell = (row.get(column) or "").strip()
        if not cell:
            raise SampleValidationError(f"row {i}: empty cell in column {column!r}")
        cells.append(cell)
    # the blank first line stands in for the header, so errors name CSV rows
    return parse_sample_lines(["", *cells])


def load_sample(source: str | Path | TextIO, column: str | None = None) -> Sample:
    """Load a sample from a path or open text stream.

    Plain text means one decimal float per line; passing ``column`` switches
    to CSV mode and reads that column.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_sample(fh, column=column)
    if column is not None:
        return parse_sample_csv(source, column)
    return parse_sample_lines(source)


# ---------------------------------------------------------------------------
# empirical transform and censoring point


def empirical_laplace(sample: Sample, s: float | np.ndarray) -> float | np.ndarray:
    """Empirical Laplace transform mean(exp(-s * X_i)); equals 1 at s = 0."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("transform argument must be >= 0")
    if s_arr.ndim == 0:
        return float(np.exp(-float(s_arr) * sample.values).mean())
    return np.exp(-np.multiply.outer(s_arr, sample.values)).mean(axis=-1)


def zero_adjusted_target(p_hat: float) -> float:
    """Target transform level: 1/e, or the zero-adjusted level when p_hat >= 1/e."""
    if p_hat < 1.0 / E:
        return 1.0 / E
    return (1.0 + (E - 1.0) * p_hat) / E


@dataclass(frozen=True)
class CensoringPoint:
    a: float
    c_target: float
    iterations: int
    residual: float


def solve_censoring_point(sample: Sample) -> CensoringPoint:
    """Solve L_n(A) = c_target for the data-driven censoring point A.

    L_n is strictly decreasing from 1 to p_hat, and c_target lies strictly
    between them whenever some observation is positive, so the root is unique.
    The bracket starts at [0, 1/median(positive values)] and doubles the upper
    end until it straddles the root; safeguarded Newton steps (falling back to
    bisection whenever a step leaves the bracket or the slope is zero) then
    converge to relative tolerance SOLVER_RTOL on the transform value.  A
    bracket whose midpoint is not a positive finite float raises
    DegenerateSampleError: subnormal data make 1/median infinite.
    """
    if sample.all_zero:
        raise AllZeroSampleError("all observations are zero; L_n(s) == 1 has no root")
    x = sample.values
    c = zero_adjusted_target(sample.p_hat)

    lo = 0.0
    hi = 1.0 / sample.positive_median()
    while 0.0 < hi < math.inf and float(np.exp(-hi * x).mean()) - c > 0.0:
        lo, hi = hi, 2.0 * hi
    a = 0.5 * (lo + hi)
    if not 0.0 < a < math.inf:
        raise DegenerateSampleError(
            "censoring point bracket leaves the float range: the positive values "
            "are too small for 1/median to be a finite float"
        )

    f = math.inf
    for it in range(SOLVER_MAX_ITER):
        weights = np.exp(-a * x)
        f = float(weights.mean()) - c
        if abs(f) <= SOLVER_RTOL * c:
            return CensoringPoint(a=a, c_target=c, iterations=it, residual=f)
        if f > 0.0:
            lo = a
        else:
            hi = a
        slope = -float((x * weights).mean())
        a_next = a - f / slope if slope != 0.0 else math.nan
        if not lo < a_next < hi:  # NaN included: bisect
            a_next = 0.5 * (lo + hi)
        a = a_next
    return CensoringPoint(a=a, c_target=c, iterations=SOLVER_MAX_ITER, residual=f)


# ---------------------------------------------------------------------------
# censored moments: the one statistics pass


@dataclass(frozen=True)
class CensoredMomentSet:
    """Censoring point, target level and the sample's statistics in the frame y = a*x.

    ``m_tilde[r] = mean(y**r * exp(-y))`` for r <= MAX_ORDER and ``cov`` is the
    ddof=1 covariance of the power products y**r * exp(-y), r <= MAX_ORDER - 1.
    Both are unit-free: a map built on them sees the data's scale only through a.
    """

    a: float
    c_target: float
    m_tilde: np.ndarray
    cov: np.ndarray

    def m(self, r: int) -> float:
        """Raw censored moment m_hat[r] = mean(X**r * exp(-a*X)) = m_tilde[r] / a**r."""
        value = float(self.m_tilde[r])
        for _ in range(r):
            value /= self.a
        return value


def censored_moments_at(sample: Sample, a: float) -> CensoredMomentSet:
    """The statistics pass at a fixed censoring point: normalized moments and their covariance.

    The power products are built by repeated multiplication from exp(-y),
    never from y**r, which may overflow where exp(-y) underflows to zero; a
    zero weight times a finite y stays an exact zero.  The covariance is the
    centred two-pass form, which keeps its precision where E[PP^T] - mm^T
    would cancel.
    """
    if not a > 0.0:
        raise ValueError("censoring point must be positive")
    y = a * sample.values
    block = np.empty((MAX_ORDER, sample.n))
    np.exp(-y, out=block[0])
    for r in range(1, MAX_ORDER):
        np.multiply(block[r - 1], y, out=block[r])
    m_tilde = np.empty(MAX_ORDER + 1)
    m_tilde[:MAX_ORDER] = block.mean(axis=1)
    m_tilde[MAX_ORDER] = np.multiply(block[MAX_ORDER - 1], y, out=y).mean()
    block -= m_tilde[:MAX_ORDER, None]
    cov = block @ block.T / (sample.n - 1)
    return CensoredMomentSet(a=a, c_target=float(m_tilde[0]), m_tilde=m_tilde, cov=cov)


def censored_moments(sample: Sample) -> CensoredMomentSet:
    """The sample's cached censored moments (``Sample.moments``), solved on first use."""
    return sample.moments


def influence_map(moments: CensoredMomentSet, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Map from the power products to the influence rows, and the rows' scales.

    Returns the (k+1) x MAX_ORDER matrix L with (V~_1, ..., V~_k, W~) = L @ P~,
    where V~_r = P~_r - m_tilde[r+1]/m_tilde[1] * P~_0 captures a censored
    moment and W~ = P~_0/m_tilde[1] the censoring point, and the scales
    (a**-1, ..., a**-k, a) that turn them into the raw rows V_r and W.  The
    covariance of the rows is then diag(scales) @ L @ cov @ L.T @ diag(scales).
    """
    if not 1 <= k <= MAX_ORDER - 1:
        raise ValueError(f"k must be in 1..{MAX_ORDER - 1}")
    m = moments.m_tilde
    if m[1] == 0.0:
        raise DegenerateMomentsError("first censored moment is zero")
    lmap = np.zeros((k + 1, MAX_ORDER))
    lmap[:k, 0] = -m[2 : k + 2] / m[1]
    lmap[:k, 1 : k + 1] = np.eye(k)
    lmap[k, 0] = 1.0 / m[1]
    scales = np.empty(k + 1)
    scales[0], scales[k] = 1.0 / moments.a, moments.a
    for r in range(1, k):
        scales[r] = scales[r - 1] / moments.a
    return lmap, scales
