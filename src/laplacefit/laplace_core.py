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
"""

from __future__ import annotations

import csv
import math
import os
import stat
import sys
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

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


def parse_sample_lines(lines: Iterable[str]) -> Sample:
    """Parse newline-delimited decimal floats; blank lines are skipped."""
    return _parse_numbered(enumerate(lines, start=1))


def _parse_numbered(rows: Iterable[tuple[int, str]]) -> Sample:
    # each (line number, text) row holds one float or nothing; errors name the line
    out: list[float] = []
    for i, raw in rows:
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
    """Extract a named column from CSV text and validate it as a sample.

    Each row's cell at the column's index (see :func:`_csv_options`) is
    read; a blank row is skipped and a row too short for the index has an
    empty cell.  Errors name the file line where the record ends.
    """
    reader = csv.reader(stream)
    index = _csv_options(reader, column)["usecols"]
    cells = []
    for row in filter(None, reader):  # a blank row is skipped
        cell = row[index].strip() if index < len(row) else ""
        if not cell:
            raise SampleValidationError(f"row {reader.line_num}: empty cell in column {column!r}")
        cells.append((reader.line_num, cell))
    return _parse_numbered(cells)


#: least size in bytes of each part of a split read (see :func:`load_sample`)
SPLIT_BYTES = 4 * 2**20

#: the suffixes numpy's path reader decompresses; such files are staged as streams are
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma", ".zip")


def load_sample(source: str | Path | TextIO | BinaryIO, column: str | None = None) -> Sample:
    """Load a sample from a path or an open text or binary stream.

    Plain text means one decimal float per line; passing ``column`` switches
    to CSV mode and reads that column (the last one of that name in the
    header, see :func:`_csv_options`).  Text is UTF-8.

    ``np.loadtxt`` reads the values.  A regular file is handed to it by its
    path, so its C reader takes the text in chunks rather than one Python
    line object at a time.  A file of at least ``2 * SPLIT_BYTES``, in a
    process with one thread that can fork, make in-memory files and run on
    two or more CPUs, is cut just after newlines into
    min(CPUs, size // SPLIT_BYTES) parts, parsed at the same time, each
    after the first in a forked child: numpy reads a part from an
    in-memory file of its bytes, and its floats go into another.  Text
    mode never joins a newline with the next byte, so the parts' rows are
    the file's.  A CSV quote after the header (a quoted cell may hold a
    line break) or a failed child sends the file to a read in one process;
    else a part numpy refuses sends it to the UTF-8 check below.  Every
    child is reaped before this returns or raises.

    Any other input is copied to a temporary file that is read as above
    and removed: a file numpy would not read as it is (a name it would
    decompress, ``.gz``, ``.bz2``, ``.xz``, ``.lzma`` or ``.zip``, whatever
    it holds, or a pipe) as its bytes, and a stream as its bytes, or as its
    text encoded back to UTF-8 (a lone-surrogate escape of a bad byte stays
    a bad byte), or as the bytes it could not decode.

    A bad byte is refused at its row before any row is checked: when these
    reads or ``Sample.from_values`` refuse the input, its first byte that is
    not UTF-8 is refused as ``row k: not UTF-8 text``, with k one plus the
    line breaks (``\\n``, ``\\r`` or ``\\r\\n``) before it.  Only then is
    the input read again from its start by the row parsers, which give the
    error with its row number.
    """
    if not isinstance(source, (str, Path)):
        return _load_staged(source, column)
    path = _numpy_path(source)
    if path is None:
        with open(source, "rb") as fh:
            return _load_staged(fh, column)
    try:
        return Sample.from_values(_load_path(path, column))
    except (ValueError, csv.Error, OSError):
        pass  # an OSError is raised again, as it was, by open below
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if not data.isascii():  # ASCII is UTF-8, and this check makes no copy of the text
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        end = exc.start  # \n, \r and \r\n each end a row
        breaks = data.count(b"\n", 0, end) + data.count(b"\r", 0, end) - data.count(b"\r\n", 0, end)
        raise SampleValidationError(f"row {1 + breaks}: not UTF-8 text") from None
    del data
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sample_lines(fh) if column is None else parse_sample_csv(fh, column)


def _load_staged(stream: BinaryIO | TextIO, column: str | None) -> Sample:
    """:func:`load_sample` of a stream's content, staged in a temporary file."""
    import tempfile  # here, so that starting the CLI does not load it

    staged = tempfile.NamedTemporaryFile(delete=False)
    try:
        with staged:
            try:
                data = stream.read()
            except UnicodeDecodeError as exc:
                data = exc.object  # the bytes as read, refused by row as in a file
            staged.write(data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass"))
            del data
        return load_sample(staged.name, column)
    finally:
        os.remove(staged.name)


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


def _loadtxt(path: str, **options) -> np.ndarray:
    """One (rows, 1) column of floats read by ``np.loadtxt``; ValueError on any doubt."""
    with warnings.catch_warnings():
        # an empty input is refused by the row parser with its own message
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        arr = np.loadtxt(path, comments=None, ndmin=2, **options)
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
    except OSError:  # no fork or in-memory file to be had, say
        values = None
    return _loadtxt(path, **options) if values is None else values


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or make
    an in-memory file."""
    if not all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create")):
        return 1
    return len(os.sched_getaffinity(0))


#: the exit statuses of a part's read; the file's is the highest of its parts'
_PART_READ, _PART_REFUSED, _PART_IN_DOUBT = 0, 1, 2


def _load_parts(path: str, options: dict) -> np.ndarray | None:
    """The floats of a large file, each part after the first parsed in a
    forked child; None when the file is small or a part is in doubt.
    ValueError when numpy refuses a part and none is in doubt: the parts'
    rows are the file's rows, so numpy refuses the whole file as well."""
    size = os.path.getsize(path)
    parts = min(_usable_cpus(), size // SPLIT_BYTES)
    if parts < 2 or threading.active_count() != 1:
        return None
    # cut just after the first newline at or past each 1/parts of the file:
    # text-mode reading never joins a newline with the byte after it
    with open(path, "rb") as fh:
        cuts = {fh.seek(size * j // parts) + len(fh.readline()) for j in range(1, parts)}
    bounds = [0, *sorted(c for c in cuts if c < size), size]
    if len(bounds) < 3:
        return None
    # imported here, so that starting the CLI does not load it
    import signal

    def read(j: int) -> int:
        # part j, parsed from an in-memory file of its bytes, into outs[j]
        with open(path, "rb") as fh:
            data = fh.read(bounds[j + 1] - fh.seek(bounds[j]))
        if "quotechar" in options and b'"' in data.split(b"\n", options["skiprows"])[-1]:
            return _PART_IN_DOUBT  # a quoted cell after the header may hold a line break
        with open(os.memfd_create("part"), "wb") as part:
            part.write(data)
            part.flush()
            del data
            try:
                values = _loadtxt(f"/proc/self/fd/{part.fileno()}", **options)
            except ValueError:
                return _PART_REFUSED
        values.tofile(f"/proc/self/fd/{outs[j]}")
        return _PART_READ

    children, outs = [], []
    try:
        for _ in bounds[1:]:
            outs.append(os.memfd_create("values"))
        for j in range(1, len(outs)):
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller
                status = _PART_IN_DOUBT
                try:
                    warnings.simplefilter("error")  # so a child writes nothing to stderr
                    options["skiprows"] = 0  # only the first part holds a CSV header
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
        return None if status == _PART_IN_DOUBT else np.concatenate([np.fromfile(f"/proc/self/fd/{fd}") for fd in outs])
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in outs:
            os.close(fd)


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
    unique, exactly when p_hat < 1/e; every other row is refused before Newton
    runs.  L_n is a mean of exp(-s*x), so L_n - 1/e is also convex: each Newton
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
        errors, zero_count == n,
        lambda i: AllZeroSampleError("all observations are zero; L_n(s) == 1 has no root"),
    )
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
    scale only through a.  A row the solve refused, or failed to solve, has
    the error in ``errors[i]`` and a NaN ``a[i]``, so its statistics are NaN.
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

    An all-zero sample, fewer than ``min_n`` observations, a constant sample
    if ``constant`` gives the message to refuse it with, then the solve's
    error, such as a zero fraction at or above 1/e (a constant sample with a
    zero is all zero).
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
