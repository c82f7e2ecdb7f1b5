"""Empirical Laplace transform, data-driven censoring point and censored moments.

The censoring point A solves L_n(A) = c on the empirical transform
L_n(s) = mean(exp(-s*X_i)), where the target level c is exp(-1) unless the
observed zero fraction reaches 1/e, in which case the zero-adjusted level
(1 + (e-1)*p_hat)/e is used.  Censored moments, per-observation influence rows
and their sample covariance feed every estimator and test in the package.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    AllZeroSampleError,
    DegenerateMomentsError,
    InsufficientSampleError,
    RegimeError,
    SampleValidationError,
)

E = math.e

#: relative tolerance on |L_n(A) - c|; the solver iterates until met
SOLVER_RTOL = 1e-12

#: hard cap on safeguarded Newton/bisection iterations
SOLVER_MAX_ITER = 80


@dataclass(frozen=True)
class Sample:
    """Validated vector of non-negative observations with cached summaries."""

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

    @property
    def constant(self) -> bool:
        return bool(self.values.max() == self.values.min())

    def positive_median(self) -> float:
        if self.all_zero:
            raise AllZeroSampleError("no positive observations")
        return float(np.median(self.values[self.values > 0.0]))


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
    bisection whenever a step leaves the bracket) then converge to relative
    tolerance SOLVER_RTOL on the transform value.
    """
    if sample.all_zero:
        raise AllZeroSampleError("all observations are zero; L_n(s) == 1 has no root")
    x = sample.values
    c = zero_adjusted_target(sample.p_hat)

    lo = 0.0
    hi = 1.0 / sample.positive_median()
    f_hi = float(np.exp(-hi * x).mean()) - c
    while f_hi > 0.0:
        lo, hi = hi, 2.0 * hi
        f_hi = float(np.exp(-hi * x).mean()) - c

    a = 0.5 * (lo + hi)
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
        step = f / slope
        a_next = a - step
        if not lo < a_next < hi:
            a_next = 0.5 * (lo + hi)
        a = a_next
    return CensoringPoint(a=a, c_target=c, iterations=SOLVER_MAX_ITER, residual=f)


# ---------------------------------------------------------------------------
# censored moments


def _power_products(x: np.ndarray, weights: np.ndarray, r_max: int) -> np.ndarray:
    """Row r of the result is x**r * weights with zeros wherever weights == 0.

    exp(-a*x) underflows to exact zero for a*x beyond ~746 while x**r may
    overflow there; the true product is below 1e-300, so zeroing it is exact.
    """
    out = np.zeros((r_max + 1, x.size))
    live = weights > 0.0
    if live.all():
        out[0] = weights
        for r in range(1, r_max + 1):
            out[r] = out[r - 1] * x
    else:
        xl, wl = x[live], weights[live]
        term = wl
        out[0, live] = term
        for r in range(1, r_max + 1):
            term = term * xl
            out[r, live] = term
    return out


@dataclass(frozen=True)
class CensoredMomentSet:
    """Censoring point, target level and m_hat[r] = mean(X**r * exp(-a*X))."""

    a: float
    c_target: float
    m_hat: np.ndarray
    p_hat: float

    def m(self, r: int) -> float:
        return float(self.m_hat[r])

    @property
    def r_max(self) -> int:
        return self.m_hat.size - 1


def censored_moments_at(sample: Sample, a: float, r_max: int = 4) -> CensoredMomentSet:
    """Censored empirical moments at a fixed censoring point."""
    if not a > 0.0:
        raise ValueError("censoring point must be positive")
    weights = np.exp(-a * sample.values)
    terms = _power_products(sample.values, weights, r_max)
    m_hat = terms.mean(axis=1)
    return CensoredMomentSet(a=a, c_target=float(m_hat[0]), m_hat=m_hat, p_hat=sample.p_hat)


def censored_moments(sample: Sample, r_max: int = 4) -> CensoredMomentSet:
    """Censored empirical moments at the solved censoring point.

    m_hat[0] equals the target level up to the solver tolerance by definition
    of A; both use the same summation path, so the identity is preserved.
    """
    point = solve_censoring_point(sample)
    moments = censored_moments_at(sample, point.a, r_max=r_max)
    return CensoredMomentSet(
        a=point.a, c_target=point.c_target, m_hat=moments.m_hat, p_hat=sample.p_hat
    )


# ---------------------------------------------------------------------------
# influence rows and covariance


@dataclass(frozen=True)
class InfluenceRows:
    """Per-observation rows (V_1i, ..., V_ki, W_i) of the limit covariance.

    V_ri = exp(-A*X_i) * (X_i**r - m_hat[r+1]/m_hat[1]) captures a censored
    moment, W_i = exp(-A*X_i)/m_hat[1] captures the censoring point itself.
    """

    matrix: np.ndarray
    k: int

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def moment_rows(self) -> np.ndarray:
        return self.matrix[:, : self.k]

    def point_row(self) -> np.ndarray:
        return self.matrix[:, self.k]


def influence_rows(sample: Sample, moments: CensoredMomentSet, k: int) -> InfluenceRows:
    """Build the (n, k+1) influence matrix for the first k censored moments."""
    if not 1 <= k <= 3:
        raise ValueError("k must be in 1..3")
    if moments.r_max < k + 1:
        raise ValueError(f"need moments through r={k + 1}, have r_max={moments.r_max}")
    m1 = moments.m(1)
    if m1 == 0.0:
        raise DegenerateMomentsError("first censored moment is zero")
    x = sample.values
    weights = np.exp(-moments.a * x)
    terms = _power_products(x, weights, k)
    cols = [terms[r] - moments.m(r + 1) / m1 * weights for r in range(1, k + 1)]
    cols.append(weights / m1)
    return InfluenceRows(matrix=np.stack(cols, axis=1), k=k)


def sample_covariance(rows: InfluenceRows | np.ndarray) -> np.ndarray:
    """Unbiased sample covariance of the influence rows (observations in rows)."""
    matrix = rows.matrix if isinstance(rows, InfluenceRows) else np.asarray(rows)
    if matrix.shape[0] < 2:
        raise ValueError("need at least two observations for a covariance")
    return np.atleast_2d(np.cov(matrix, rowvar=False, ddof=1))
