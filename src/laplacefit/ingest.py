"""Reading a sample from a file or a stream.

``load_sample`` hands a regular file to ``np.loadtxt`` by its path, split
across forked children when it is large, stages any other input in a
temporary file first, and sends a file numpy refuses to the row parsers,
which name the row at fault.  Every read ends in ``Sample.from_values``;
the method itself (solve, statistics pass, influence map) is
:mod:`laplacefit.laplace_core`, which never imports this module.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import threading
import warnings
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .errors import SampleValidationError
from .laplace_core import Sample


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
