"""Empirical Laplace transform, data-driven censoring point and censored moments.

The censoring point A solves L_n(A) = c on the empirical transform
L_n(s) = mean(exp(-s*X_i)), where the target level c is exp(-1) unless the
observed zero fraction reaches 1/e, in which case the zero-adjusted level
(1 + (e-1)*p_hat)/e is used.  One statistics pass then takes the censored
moments and the covariance of the power products in the frame y = A*x; every
estimator, standard error and test statistic in the package is a small map of
these.

The solve and the pass work along the last axis of an (R, n) block of R
samples, and ``summarise`` reduces such a block to a :class:`Batch`, the
input of every family map.  A single sample is a batch of one: it caches its
``summarise`` row, so its fit and test share one solve and one pass.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import stat
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, TextIO

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
    refuse,
)

E = math.e

#: relative tolerance on |L_n(A) - c|; the solver iterates until met
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
        arr = np.asarray(values, dtype=float).reshape(-1)
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


def parse_sample_lines(lines: Iterable[str]) -> Sample:
    """Parse newline-delimited decimal floats; blank lines are skipped.

    A byte that is not UTF-8, whether the stream cannot decode it or decoded
    it to an escape, is refused with the number of its row.
    """
    return _parse_numbered(enumerate(lines, start=1))


def _not_utf8(exc: UnicodeDecodeError, rows_read: int) -> SampleValidationError:
    """The error of a byte that a text stream could not decode after ``rows_read`` lines.

    A text stream decodes its bytes from the end of its last line read: the
    whole rest at once for ``read()``, and the next chunk only when the text
    already decoded holds no line break when iterated.  So the bad byte's
    row is ``rows_read + 1`` plus the line breaks before it in the bytes
    handed to the decoder.
    """
    before = exc.object[: exc.start]
    breaks = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
    return SampleValidationError(f"row {rows_read + 1 + breaks}: not UTF-8 text")


def _parse_numbered(rows: Iterable[tuple[int, str]]) -> Sample:
    # each (line number, text) row holds one float or nothing; errors name the line
    out: list[float] = []
    i = 0
    try:
        for i, raw in rows:
            token = raw.strip()
            if not token:
                continue
            try:
                value = float(token)
            except ValueError:
                # a stream decoding with errors="surrogateescape" (stdin under a
                # POSIX locale) turns a byte that is not UTF-8 into a lone surrogate
                problem = "not UTF-8 text" if _escaped(token) else f"cannot parse {token!r}"
                raise SampleValidationError(f"row {i}: {problem}") from None
            if math.isnan(value) or math.isinf(value):
                raise SampleValidationError(f"row {i}: non-finite value {token!r}")
            if value < 0.0:
                raise SampleValidationError(f"row {i}: negative value {token!r}")
            out.append(value)
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, i) from None
    if not out:
        raise SampleValidationError("no data rows found")
    return Sample.from_values(out)


def _escaped(token: str) -> bool:
    """Whether ``token`` holds a lone surrogate, which no UTF-8 text decodes to."""
    try:
        token.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def parse_sample_csv(stream: TextIO, column: str) -> Sample:
    """Extract a named column from CSV text and validate it as a sample.

    Each row's cell at the column's index (see :func:`_csv_options`) is
    read; a blank row is skipped and a row too short for the index has an
    empty cell.  Errors name the file line where the record ends.  Bytes
    that are not UTF-8 are refused as :func:`parse_sample_lines` refuses them.
    """
    reader = csv.reader(stream)
    cells = []
    try:
        index = _csv_options(reader, column)["usecols"]
        for row in filter(None, reader):  # a blank row is skipped
            cell = row[index].strip() if index < len(row) else ""
            if not cell:
                raise SampleValidationError(f"row {reader.line_num}: empty cell in column {column!r}")
            cells.append((reader.line_num, cell))
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, reader.line_num) from None
    return _parse_numbered(cells)


#: least size in bytes of each part of a split read (see :func:`load_sample`)
SPLIT_BYTES = 4 * 2**20

#: the suffixes numpy's path reader decompresses; such files are read as streams
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma", ".zip")


def load_sample(source: str | Path | TextIO, column: str | None = None) -> Sample:
    """Load a sample from a path or open text stream.

    Plain text means one decimal float per line; passing ``column`` switches
    to CSV mode and reads that column (the last one of that name in the
    header, see :func:`_csv_options`).  Text is UTF-8; a byte that is not is
    refused with its row.

    ``np.loadtxt`` reads the values.  A regular file is handed to it by its
    path, so its C reader takes the text in chunks rather than one Python
    line object at a time; a file whose name numpy would decompress
    (``.gz``, ``.bz2``, ``.xz``, ``.lzma`` or ``.zip``, whatever it holds)
    is read as a stream instead.  A file of at least ``2 * SPLIT_BYTES``,
    in a process with one thread that can fork and may run on two or more
    CPUs, is cut at newlines into min(CPUs, size // SPLIT_BYTES) parts, and
    each part after the first is parsed at the same time in a forked child
    (``np.loadtxt(path, skiprows=lines_before, max_rows=lines_in_part)``)
    that writes its floats into shared memory.  ``max_rows`` counts rows
    with content but ``skiprows`` counts lines, so the split needs one row
    per line: a file with a part that holds a byte outside printable ASCII
    other than the newline (``\\r``, a space or tab, non-ASCII text), an
    empty line or, in CSV mode, a quote is read in one process instead, as
    it is when a child fails or reads a different shape.  When every part
    is one row per line and numpy refuses one of them, the file goes
    straight to the row parser below, with no read in one process.  Every
    child is reaped before this returns or raises.

    A stream, stdin included, is read in one process: numpy reads it a line
    at a time and there is no path for a child to open.  A stream that
    cannot seek, such as a stdin pipe, is first buffered in memory.

    Input that these reads or ``Sample.from_values`` refuse is read again
    from its start by the row parsers, which give the error with its row
    number.
    """
    if isinstance(source, (str, Path)):
        path = _numpy_path(source)
        if path is not None:
            try:
                return Sample.from_values(_load_path(path, column))
            except (ValueError, csv.Error, OSError):
                pass  # an OSError is raised again, as it was, by open below
        with open(source, "r", encoding="utf-8") as fh:
            if path is None:
                return load_sample(fh, column=column)
            return _parse_rows(fh, column)
    if not source.seekable():
        try:
            source = io.StringIO(source.read())
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc, 0) from None
    start = source.tell()
    try:
        options = {} if column is None else _csv_options(csv.reader(source), column)
        return Sample.from_values(_loadtxt(source, **options))
    except (ValueError, csv.Error):
        source.seek(start)
    return _parse_rows(source, column)


def _parse_rows(stream: TextIO, column: str | None) -> Sample:
    return parse_sample_lines(stream) if column is None else parse_sample_csv(stream, column)


def _numpy_path(source: str | Path) -> str | None:
    """The absolute path of a regular file that numpy reads as it is, else None.

    Absolute, so numpy cannot take it for a URL.
    """
    if Path(source).suffix.lower() in _COMPRESSED_SUFFIXES:
        return None
    try:
        if not stat.S_ISREG(os.stat(source).st_mode):
            return None
    except OSError:
        return None  # raised again, as it was, by open
    return os.path.abspath(source)


def _csv_options(reader: Iterator[list[str]], column: str) -> dict:
    """``np.loadtxt`` options reading ``column``, the last cell of that name
    in the header, the first row of the CSV ``reader``; every CSV reader
    finds its column, or is refused, here."""
    header = next(reader, None)
    if header is None or column not in header:
        raise SampleValidationError(f"column {column!r} not found (have {header})")
    last = len(header) - 1 - header[::-1].index(column)
    return {"delimiter": ",", "quotechar": '"', "usecols": last}


def _loadtxt(source: str | TextIO, **options) -> np.ndarray:
    """One (rows, 1) column of floats read by ``np.loadtxt``; ValueError on any doubt."""
    with warnings.catch_warnings():
        # an empty input is refused by the row parser with its own message
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        arr = np.loadtxt(source, comments=None, ndmin=2, **options)
    if arr.shape[1] != 1:
        raise ValueError("more than one value on a line")
    return arr


def _load_path(path: str, column: str | None) -> np.ndarray:
    """The floats of a regular file, read by path, in parts when it is large."""
    options = {"encoding": "utf-8", "skiprows": 0}
    if column is not None:
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            options.update(_csv_options(reader, column), skiprows=reader.line_num)
    try:
        values = _load_parts(path, options)
    except OSError:  # no fork or shared memory to be had, say
        values = None
    return _loadtxt(path, **options) if values is None else values


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


#: the exit statuses of a part's read; the file's is the highest of its parts'
_PART_READ, _PART_REFUSED, _PART_IN_DOUBT = 0, 1, 2


def _load_parts(path: str, options: dict) -> np.ndarray | None:
    """The floats of a large file, each part after the first parsed in a
    forked child; None when the file is small or a part is in doubt.
    ValueError when numpy refuses a part and none is in doubt: each part's
    lines are then its rows, so numpy refuses the whole file as well."""
    parts = min(_usable_cpus(), os.path.getsize(path) // SPLIT_BYTES)
    if parts < 2 or threading.active_count() != 1:
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    # cut after the first newline at or past each 1/parts of the file
    cuts = {data.find(b"\n", len(data) * j // parts) + 1 for j in range(1, parts)}
    bounds = [0, *sorted(c for c in cuts if 0 < c < len(data)), len(data)]
    text = np.frombuffer(data, dtype=np.uint8)
    spans = [text[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    newlines = [int(np.count_nonzero(span == 10)) for span in spans]
    # part j skips the lines before it; its rows are its lines, less the
    # header's in the first part, plus an unterminated last line in the last
    skips = [options["skiprows"], *itertools.accumulate(newlines[:-1])]
    rows = [*newlines]
    rows[0] -= options["skiprows"]
    rows[-1] += not data.endswith(b"\n")
    if len(spans) < 2 or min(rows) < 1:
        return None
    del data, text  # so that clearing spans frees the file's bytes
    # imported here, so that starting the CLI loads neither
    import mmap
    import signal

    ends = [0, *itertools.accumulate(rows)]
    out = np.frombuffer(mmap.mmap(-1, ends[-1] * 8), dtype=float)

    def read(j: int) -> int:
        # part j into its rows of out; the last part reads to the end of the file
        if not _one_row_per_line(spans[j], newlines[j], "quotechar" in options):
            return _PART_IN_DOUBT
        spans.clear()
        max_rows = rows[j] if j < len(rows) - 1 else None
        try:
            values = _loadtxt(path, **{**options, "skiprows": skips[j], "max_rows": max_rows})
        except ValueError:
            return _PART_REFUSED
        if values.size != rows[j]:
            return _PART_IN_DOUBT
        out[ends[j] : ends[j + 1]] = values[:, 0]
        return _PART_READ

    children = []
    try:
        for j in range(1, len(rows)):
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller
                status = _PART_IN_DOUBT
                try:
                    warnings.simplefilter("error")  # so a child writes nothing to stderr
                    status = read(j)
                finally:
                    os._exit(status)
            children.append(pid)
        status = read(0)
        while children and status != _PART_IN_DOUBT:
            _, wait = os.waitpid(children[-1], 0)
            children.pop()
            code = os.waitstatus_to_exitcode(wait)  # negative for a child a signal ended
            status = max(status, code if code >= 0 else _PART_IN_DOUBT)
        if status == _PART_REFUSED:
            raise ValueError("numpy refuses a part of the file")
        return None if status == _PART_IN_DOUBT else out
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _one_row_per_line(span: np.ndarray, newlines: int, quotes: bool) -> bool:
    """Whether each line of a part's bytes ``span`` is one row to ``np.loadtxt``."""
    return not (
        # every byte below 33 is a newline (no \r, space or tab), and none is above 127
        np.count_nonzero(span < 33) != newlines
        or span.max() > 127
        # no empty line
        or span[0] == 10
        or np.any((span[1:] == 10) & (span[:-1] == 10))
        # no CSV quote
        or (quotes and np.any(span == 34))
    )


# ---------------------------------------------------------------------------
# empirical transform and censoring point


def empirical_laplace(sample: Sample, s: float | np.ndarray) -> float | np.ndarray:
    """Empirical Laplace transform mean(exp(-s * X_i)); 1 at s = 0 and p_hat at s = inf."""
    s_arr = np.asarray(s, dtype=float)
    if not np.all(s_arr >= 0.0):
        raise ConfigError(f"transform argument must be >= 0, got {s!r}")
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN; its limit exp(-0) is 1
        terms = np.exp(-np.multiply.outer(s_arr, sample.values))
    out = _mean(np.nan_to_num(terms, copy=False, nan=1.0))
    return float(out) if s_arr.ndim == 0 else out


def zero_adjusted_target(p_hat: float | np.ndarray) -> np.ndarray:
    """Target transform level: 1/e, or the zero-adjusted level when p_hat >= 1/e."""
    return np.where(p_hat < 1.0 / E, 1.0 / E, (1.0 + (E - 1.0) * p_hat) / E)


#: scale of a slope sum that overflows: fewer than 2**64 finite terms, each
#: times it, sum to a finite float
_SLOPE_SCALE = 2.0**-64


def _mean(values: np.ndarray) -> np.ndarray:
    # ndarray.mean along the last axis, bit for bit, without its Python overhead
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def positive_medians(x: np.ndarray, zero_count: np.ndarray) -> np.ndarray:
    """Median of the positive values of each row of ``x``; each row needs one.

    Sorted, a row's positive values follow its zeros, so one sort of the
    block gives every row's two middle positive values.  The even-count
    midpoint is lo/2 + hi/2, which, unlike (lo + hi)/2, cannot overflow.
    """
    positive = x.shape[-1] - zero_count
    hi_index = zero_count + positive // 2
    lo_index = hi_index - 1 + positive % 2
    ordered = np.sort(x, axis=-1)
    rows = np.arange(x.shape[0])
    lo, hi = ordered[rows, lo_index], ordered[rows, hi_index]
    return np.where(lo_index == hi_index, hi, lo / 2.0 + hi / 2.0)


def solve_rows(
    x: np.ndarray, zero_count: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[LaplaceFitError | None]]:
    """Solve L_n(A) = c_target for every row of the (R, n) block ``x``.

    Returns the (R,) arrays of each row's censoring point A, target level
    c_target, Newton iterations and residual L_n(A) - c_target, and the
    rows' errors; :func:`summarise` keeps all of them in the :class:`Batch`.

    L_n is strictly decreasing from 1 to p_hat, and c_target lies strictly
    between them whenever some observation is positive, so the root is unique.
    L_n is a mean of exp(-s*x), so L_n - c is also convex: each Newton step
    A <- A + f/mean(x*exp(-A*x)) lands at or left of the root, and from there
    the steps climb to it without overshooting.  The start A0 = 1/median
    (positive values) may lie right of the root, but its first step still
    lands in (0, A]: the step is positive when mean((1 + u)*exp(-u)) > c with
    u = A0*x, and (1 + u)*exp(-u) >= 2/e at the positive values up to the
    median, at least half of them, while each zero contributes 1; together
    these exceed the target level, 1/e or its zero-adjusted form.  Newton
    stops at relative tolerance SOLVER_RTOL on the transform value.  The slope
    is sum(x*exp(-A*x))/n: the terms are summed undivided, so data far below
    unit scale do not turn them subnormal.  A row whose sum overflows, which
    takes terms near the float maximum, is summed again with its terms scaled
    by an exact power of two.

    Each row keeps to its own steps, so its result does not depend on the
    other rows, and records its error instead of raising it: an all-zero row,
    an iterate that is not a positive finite float (subnormal data make
    1/median infinite, and a root may lie beyond the float maximum), and a
    row still unsolved after SOLVER_MAX_ITER iterations.  A row with an error
    has a NaN censoring point.  The rows in play are carried as one compressed
    block, which is copied only when a row drops out.
    """
    rows, n = x.shape
    c = zero_adjusted_target(zero_count / n)
    errors: list[LaplaceFitError | None] = [None] * rows
    refuse(
        errors, zero_count == n,
        lambda i: AllZeroSampleError("all observations are zero; L_n(s) == 1 has no root"),
    )
    a, f = np.full(rows, math.nan), np.full(rows, math.nan)
    iterations = np.zeros(rows, dtype=int)
    index = np.flatnonzero(zero_count < n)
    xs, cs = x if index.size == rows else x[index], c[index]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ai = 1.0 / positive_medians(xs, zero_count[index])
        tolerance = SOLVER_RTOL * cs
        for it in range(SOLVER_MAX_ITER):
            weights = -ai[:, None] * xs
            fi = _mean(np.exp(weights, out=weights)) - cs
            done, lost = np.abs(fi) <= tolerance, ~((0.0 < ai) & (ai < math.inf))
            solved = index[done]
            a[solved], f[solved], iterations[solved] = ai[done], fi[done], it
            refuse(
                errors, index[lost],
                lambda i: DegenerateSampleError(
                    "censoring point leaves the float range: the positive values are "
                    "too small for 1/median or the root to be a finite float"
                ),
            )
            keep = ~(done | lost)
            if not keep.any():
                index, fi = index[:0], fi[:0]
                break
            # the slope is taken before the finished rows drop out, so the
            # weights are never copied with the rows that stay
            np.multiply(xs, weights, out=weights)
            moment = _mean(weights)
            big = np.flatnonzero(moment == math.inf)
            if big.size:
                moment[big] = _mean(weights[big] * _SLOPE_SCALE) / _SLOPE_SCALE
            del weights
            if not keep.all():
                index, xs, cs, tolerance, fi, ai, moment = (
                    v[keep] for v in (index, xs, cs, tolerance, fi, ai, moment)
                )
            ai = ai + fi / moment
    f[index], iterations[index] = fi, SOLVER_MAX_ITER
    refuse(
        errors, index,
        lambda i: DegenerateSampleError(
            f"censoring point solve stopped after {SOLVER_MAX_ITER} iterations "
            f"with residual {f[i]:.3g}"
        ),
    )
    return a, c, iterations, f, errors


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
    ``a[i]``, the target level ``c_target[i]``, the Newton ``iterations[i]``
    and the ``residual[i]`` L_n(A) - c_target) and, in the frame
    y = a[i]*x, the normalized moments ``m_tilde[i, r] = mean(y**r * exp(-y))``
    for r <= MAX_ORDER and the ddof=1 covariance ``cov[i]`` of the power
    products y**r * exp(-y), r < MAX_ORDER.  Both are unit-free: a map built
    on them sees the data's scale only through a.  A row whose solve failed
    has the error in ``errors[i]`` and a NaN ``a[i]``, so its statistics are
    NaN.
    """

    n: int
    zero_count: np.ndarray
    constant: np.ndarray
    a: np.ndarray
    c_target: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    m_tilde: np.ndarray
    cov: np.ndarray
    errors: list[LaplaceFitError | None]


def summarise(x: np.ndarray) -> Batch:
    """Solve and summarise every row of an (R, n) block of validated samples.

    One :func:`solve_rows` call and one :func:`moments_rows` pass over the
    whole block, which holds MAX_ORDER floats per value of ``x``.  A row whose
    solve failed has a NaN censoring point, so its statistics come out NaN.
    """
    zero_count = np.count_nonzero(x == 0.0, axis=-1)
    a, c_target, iterations, residual, errors = solve_rows(x, zero_count)
    m_tilde, cov = moments_rows(x, a)
    constant = x.max(axis=-1) == x.min(axis=-1)
    return Batch(x.shape[1], zero_count, constant, a, c_target, iterations, residual, m_tilde, cov, errors)


def row_errors(
    batch: Batch, min_n: int, constant: str | None = None
) -> list[LaplaceFitError | None]:
    """Each row's first error, in the order every fit and test checks them.

    First the regime where the estimators and tests are defined: an all-zero
    sample, fewer than ``min_n`` observations, a zero fraction at or above
    1/e, where the asymptotic covariance is not available.  Then a constant
    sample, if ``constant`` gives the message to refuse it with; then the
    solve's error.
    """
    p_hat = batch.zero_count / batch.n
    errors: list[LaplaceFitError | None] = [None] * p_hat.size
    zero_heavy = (p_hat >= 1.0 / E).nonzero()[0]
    refuse(
        errors, zero_heavy[batch.zero_count[zero_heavy] == batch.n],
        lambda i: AllZeroSampleError("all observations are zero"),
    )
    if batch.n < min_n:
        refuse(
            errors, np.arange(p_hat.size),
            lambda i: InsufficientSampleError(f"need at least {min_n} observations, got {batch.n}"),
        )
    refuse(
        errors, zero_heavy,
        lambda i: RegimeError(
            f"zero fraction {p_hat[i]:.3f} >= 1/e; the asymptotic covariance "
            "is not available in this regime"
        ),
    )
    if constant is not None:
        refuse(errors, batch.constant, lambda i: DegenerateSampleError(constant))
    return [mine if mine is not None else solve for mine, solve in zip(errors, batch.errors)]


def columns(*values: np.ndarray) -> np.ndarray:
    """The (R,) arrays ``values`` as the columns of a C-ordered (R, k) array."""
    return np.array(values).T.copy()


def quadratic_form(rows: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """b @ S @ b for each row b of ``rows`` (R, k) and matrix S of ``cov`` (R, k, k)."""
    return (rows[:, None, :] @ cov @ rows[:, :, None])[:, 0, 0]


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
