import contextlib
import csv
import io
import math
import os
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplacefit import (
    DistributionSpec,
    Sample,
    derive_substream,
    empirical_laplace,
    fit_ps,
    fit_tweedie,
    gof_jacobi,
    influence_map,
    laplace_exact,
    load_sample,
    sample_spec,
)
from laplacefit.errors import (
    AllZeroSampleError,
    ConfigError,
    DegenerateMomentsError,
    DegenerateSampleError,
    RegimeError,
    SampleValidationError,
)
from laplacefit import laplace_core
from laplacefit.laplace_core import (
    SOLVER_RTOL,
    moments_rows,
    parse_sample_csv,
    parse_sample_lines,
    positive_medians,
)

from csv_oracle import dict_reader_csv

E = math.e


# ---------------------------------------------------------------------------
# Sample construction and ingestion


def positive_median(s):
    """The median of the sample's positive values: its row of ``positive_medians``."""
    return float(positive_medians(s.values[None], np.array([s.zero_count]))[0])


def test_sample_summaries():
    s = Sample.from_values([0.0, 1.5, 0.0, 2.0])
    assert s.n == 4 and s.zero_count == 2 and s.p_hat == 0.5
    assert positive_median(s) == 1.75


@pytest.mark.parametrize(
    "values,message",
    [
        ([1.0, -2.0], "row 2: negative value -2.0"),
        ([float("nan")], "row 1: non-finite value nan"),
        ([1.0, 2.0, float("inf")], "row 3: non-finite value inf"),
    ],
    ids=["values0-row 2", "values1-row 1", "values2-row 3"],
)
def test_sample_rejects_bad_values(values, message):
    with pytest.raises(SampleValidationError) as excinfo:
        Sample.from_values(np.array(values))
    assert str(excinfo.value) == message


def test_parse_lines_row_indexed_errors():
    with pytest.raises(SampleValidationError, match="row 3"):
        parse_sample_lines(["1.0", "2.0", "oops"])
    with pytest.raises(SampleValidationError, match="row 2"):
        parse_sample_lines(["1.0", "-3"])
    # CSV rows count the header as row 1
    with pytest.raises(SampleValidationError, match="row 4"):
        parse_sample_csv(io.StringIO("a\n1\n2\nxx"), "a")


def test_load_csv_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,value\n1,0.5\n2,1.25\n")
    s = load_sample(path, column="value")
    assert np.array_equal(s.values, [0.5, 1.25])
    with pytest.raises(SampleValidationError, match="missing"):
        load_sample(io.StringIO("id,value\n1,0.5"), column="missing")


def test_load_missing_path_raises_file_not_found(tmp_path):
    # a path that os.stat cannot see goes to open, which raises as it was
    with pytest.raises(FileNotFoundError):
        load_sample(tmp_path / "absent.txt")


def test_load_plain_text(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1.0\n\n2.5\n")
    assert load_sample(path).n == 2


class Unseekable(io.StringIO):
    """A text stream that cannot seek, like a stdin pipe."""

    def seekable(self) -> bool:
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("not seekable")

    def tell(self):
        raise io.UnsupportedOperation("not seekable")


class UnseekableBytes(io.TextIOWrapper):
    """A UTF-8 text stream over ``data`` that cannot seek, like a stdin pipe."""

    def __init__(self, data: bytes):
        super().__init__(io.BytesIO(data), encoding="utf-8")

    def seekable(self) -> bool:
        return False


def read_outcome(read):
    """The values of one read as bytes, or the type and message of its error."""
    try:
        return read().values.tobytes()
    except (ValueError, csv.Error) as exc:  # csv.Error is not a ValueError
        return type(exc), str(exc)


@contextlib.contextmanager
def forced_split(parts=3):
    """Path reads split into ``parts`` parts however small the file; yields
    the list that gains an entry per fork.  Skips where there are no
    in-memory files to hand numpy the parts."""
    if not hasattr(os, "memfd_create"):
        pytest.skip("os.memfd_create is missing")
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    with mock.patch.object(laplace_core, "SPLIT_BYTES", 1), \
            mock.patch.object(laplace_core, "_usable_cpus", lambda: parts), \
            mock.patch.object(os, "fork", fork):
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_outcome(path, column=None):
    """The outcome of reading ``path`` split three ways, and how many children it forked."""
    with forced_split() as forks:
        outcome = read_outcome(lambda: load_sample(path, column=column))
    assert_no_child_left()
    return outcome, len(forks)


def assert_same_as_row_parser(text, column=None):
    """``load_sample`` on ``text`` matches the row parser bit for bit, error
    for error, and warns nothing: from a stream that can seek or not, and
    from a file read by path in one process or split; no read leaves a
    child process behind."""
    if column is None:
        expected = read_outcome(lambda: parse_sample_lines(io.StringIO(text)))
    else:
        expected = read_outcome(lambda: parse_sample_csv(io.StringIO(text), column))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sample.csv" if column else "sample.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        reads = [
            lambda: load_sample(io.StringIO(text), column=column),
            lambda: load_sample(Unseekable(text), column=column),
            lambda: load_sample(path, column=column),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for read in reads:
                assert read_outcome(read) == expected
            assert split_outcome(path, column)[0] == expected


LINE_TOKENS = [
    "", " ", "\t", "1 2", "1,2", "-0.0", "-1", "0", "1.5", " 7 ", "2.5e-320",
    "inf", "1e500", "nan", "1_000", "١٢", "0x1p3", "﻿1",
]
CSV_CELLS = [*LINE_TOKENS, '"2"', '"1,5"', '" 3 "', '""', '"4\n"']
NEWLINES = st.sampled_from(["\n", "\r\n"])


@given(st.lists(st.sampled_from(LINE_TOKENS), max_size=6), NEWLINES, st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_load_text_matches_row_parser(lines, newline, bom, last_newline):
    text = ("﻿" if bom else "") + newline.join(lines) + (newline if last_newline else "")
    assert_same_as_row_parser(text)


#: CSV text as (header, rows, newline, last_newline): rows of any length
#: (short, long, blank or whitespace-only), a header that may name "v"
#: twice or not at all, and header-only files
CSV_TEXTS = (
    st.lists(st.sampled_from(["v", "w", " v", '"v"']), max_size=4),
    st.lists(st.lists(st.sampled_from(CSV_CELLS), max_size=4), max_size=5),
    NEWLINES,
    st.booleans(),
)


def csv_text(header, rows, newline, last_newline):
    return newline.join(",".join(cells) for cells in [header, *rows]) + (newline if last_newline else "")


@given(*CSV_TEXTS)
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_row_parser(header, rows, newline, last_newline):
    assert_same_as_row_parser(csv_text(header, rows, newline, last_newline), column="v")


@given(*CSV_TEXTS)
@settings(max_examples=300, deadline=None)
def test_csv_row_parser_matches_dict_reader(header, rows, newline, last_newline):
    # the cell read by index is the cell csv.DictReader's record holds
    text = csv_text(header, rows, newline, last_newline)
    assert read_outcome(lambda: parse_sample_csv(io.StringIO(text), "v")) == read_outcome(
        lambda: dict_reader_csv(io.StringIO(text), "v")
    )


@pytest.mark.parametrize(
    "text,column,message",
    [
        ("3 4\n5 6\n", None, "row 1: cannot parse '3 4'"),
        ("1\n-0.0\n\n2.5\n", None, None),
        ("1\r\n2\r\n\r\noops\r\n", None, "row 4: cannot parse 'oops'"),
        ("", None, "no data rows found"),
        ("\n  \n", None, "no data rows found"),
        ("v,w\n", "v", "no data rows found"),
        ("", "v", "column 'v' not found (have None)"),
        ("v,w,v\n1,2,3\n4,5\n", "v", "row 3: empty cell in column 'v'"),
        ('w,v\n1,"2"\n3,"4,5"\n', "v", "row 3: cannot parse '4,5'"),
        ("w,v\n1,2,9\n\n3,4\n", "v", None),
        # CSV errors name file lines: a blank line and a quoted cell that
        # spans two lines count as they do in the file
        ("w,v\n1,2\n\n3,\n", "v", "row 4: empty cell in column 'v'"),
        ("w,v\n1,2\n\n3,-1\n", "v", "row 4: negative value '-1'"),
        ('w,v\n1,"2\n"\n3,x\n', "v", "row 4: cannot parse 'x'"),
        ('w,v\n1,"oops\nmore"\n', "v", "row 3: cannot parse 'oops\\nmore'"),
    ],
    ids=[
        "two-columns", "negative-zero", "crlf-bad-row", "empty", "blank-lines",
        "header-only", "empty-csv", "duplicate-name-short-row", "quoted-comma", "long-row-blank-row",
        "blank-line-empty-cell", "blank-line-bad-value", "quoted-newline-then-bad-row",
        "quoted-newline-bad-cell",
    ],
)
def test_load_named_cases_match_row_parser(text, column, message):
    assert_same_as_row_parser(text, column)
    if message is None:
        load_sample(io.StringIO(text), column=column)
    else:
        with pytest.raises(SampleValidationError) as excinfo:
            load_sample(io.StringIO(text), column=column)
        assert str(excinfo.value) == message


def numbered_values(n, start=1):
    return [f"{i}.25" for i in range(start, start + n)]


@pytest.mark.parametrize(
    "lines,column,message",
    [
        # later parts of a three-way split: the row parser's message and row
        (numbered_values(20) + ["inf"] + numbered_values(9), None, "row 21: non-finite value 'inf'"),
        (numbered_values(25) + ["1 2"] + numbered_values(4), None, "row 26: cannot parse '1 2'"),
        (numbered_values(24) + ["1.0x"] + numbered_values(5), None, "row 25: cannot parse '1.0x'"),
        (["v"] + numbered_values(25) + ["-3"] + numbered_values(4), "v", "row 27: negative value '-3'"),
        # a blank and a whitespace-only line in each part
        (numbered_values(4) + [""] + numbered_values(5) + [" \t"] + numbered_values(10) + [""] + numbered_values(9), None, None),
        (["v"] + numbered_values(4) + [""] + numbered_values(5) + ["  "] + numbered_values(10) + [""] + numbered_values(9), "v", "row 12: empty cell in column 'v'"),
        # a quoted CSV cell holding a newline, in the middle part and in the last
        (["w,v"] + [f"{i},{i}.5" for i in range(14)] + ['14,"15\n"'] + [f"{i},{i}.5" for i in range(16, 30)], "v", None),
        (["w,v"] + [f"{i},{i}.5" for i in range(20)] + ['20,"2\n1"'] + [f"{i},{i}.5" for i in range(22, 30)], "v", "row 23: cannot parse '2\\n1'"),
    ],
    ids=["inf", "two-tokens", "bad-token", "csv-negative", "blank-lines", "csv-blank-lines", "quoted-newline", "quoted-newline-bad-cell"],
)
def test_split_read_matches_row_parser(lines, column, message):
    text = "\n".join(lines) + "\n"
    assert_same_as_row_parser(text, column)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sample.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outcome, forks = split_outcome(path, column)
    assert forks == 2
    if message is None:
        assert isinstance(outcome, bytes)
    else:
        assert outcome == (SampleValidationError, message)


@pytest.mark.parametrize(
    "data,name",
    [
        (b"1.5\r\n2\r\n\r\n3.25\r\n" * 10, "crlf.txt"),
        (b"1.5\r2\r3.25\r" * 10, "cr.txt"),
        ("\ufeff1.5\n2\n".encode() + b"3.25\n" * 20, "bom.txt"),
        ("1.5\n2\n3.25\n\u00a0\n".encode() * 10, "nbsp.txt"),
        (b"1.5\n2\n3.25\n" * 10, "plain.gz"),
        (b"1.5\n2\n3.25\n" * 10, "plain.XZ"),
    ],
    ids=["crlf", "cr", "bom", "nbsp-line", "plain-text-gz", "plain-text-xz"],
)
def test_file_reads_match_row_parser(tmp_path, data, name):
    path = tmp_path / name
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh:
        expected = read_outcome(lambda: parse_sample_lines(fh))
    assert read_outcome(lambda: load_sample(path)) == expected
    assert split_outcome(path)[0] == expected


def test_split_read_is_the_one_process_read(tmp_path):
    # a quoted header, as R's write.csv writes it, puts no part in doubt:
    # the parent's only numpy read is of its own part
    values = derive_substream(211).gamma(0.5, 2.0, 3000)
    values[::7] = 0.0
    txt, csv_path, quoted = tmp_path / "draws.txt", tmp_path / "draws.csv", tmp_path / "quoted.csv"
    txt.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    rows = "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist()))
    csv_path.write_text("id,amount\n" + rows)
    quoted.write_text('"id","amount"\n' + rows)
    reads, real_loadtxt = [], np.loadtxt

    def count_loadtxt(source, **options):
        reads.append(source)
        return real_loadtxt(source, **options)

    for path, column in ((txt, None), (csv_path, "amount"), (quoted, "amount")):
        for parts in (2, 3, 5):
            reads.clear()
            with mock.patch.object(np, "loadtxt", count_loadtxt), forced_split(parts) as forks:
                sample = load_sample(path, column=column)
            assert_no_child_left()
            assert len(forks) == parts - 1
            assert len(reads) == 1 and is_part_read(reads[0])
            assert sample.values.tobytes() == values.tobytes()


def is_part_read(source):
    """Whether a ``np.loadtxt`` source is a split read's in-memory part file."""
    return str(source).startswith("/proc/self/fd/")


@pytest.mark.parametrize(
    "values,column,whole_reads",
    [
        (numbered_values(29) + ["oops"], None, 0),
        (numbered_values(29) + ["oops"], "v", 0),
        # a part in doubt (a CSV quote in the last) still sends the file to
        # the one-process read, whatever numpy made of the other parts
        (["1.25", "oops"] + numbered_values(26) + ['"3"', "4"], "v", 1),
    ],
    ids=["text", "csv", "refused-and-in-doubt"],
)
def test_split_read_refused_goes_to_row_parser(tmp_path, values, column, whole_reads):
    # numpy refuses a part and no part is in doubt: the row parser reads the
    # file next, with no read of the whole file by numpy in one process
    lines = values if column is None else [column, *values]
    bad = 1 + lines.index("oops")
    path = tmp_path / "sample.txt"
    path.write_text("\n".join(lines) + "\n")
    reads, real_loadtxt = [], np.loadtxt

    def count_loadtxt(source, **options):
        reads.append(source)
        return real_loadtxt(source, **options)

    with mock.patch.object(np, "loadtxt", count_loadtxt):
        outcome, forks = split_outcome(path, column)
    assert forks == 2
    # the parent's loadtxt calls: its own part, then any whole-file read
    assert is_part_read(reads[0]) and reads[1:] == [str(path)] * whole_reads
    assert outcome == (SampleValidationError, f"row {bad}: cannot parse 'oops'")


def test_split_falls_back_when_a_child_fails(tmp_path):
    path = tmp_path / "draws.txt"
    values = derive_substream(212).gamma(0.5, 2.0, 500)
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    parent, real_loadtxt = os.getpid(), laplace_core._loadtxt
    reads = []

    def fail_in_child(source, **options):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        reads.append(source)
        return real_loadtxt(source, **options)

    with mock.patch.object(laplace_core, "_loadtxt", fail_in_child), forced_split() as forks:
        sample = load_sample(path)
    assert_no_child_left()
    assert len(forks) == 2
    # the parent read its own part, then the whole file
    assert len(reads) == 2 and is_part_read(reads[0]) and reads[1] == str(path)
    assert sample.values.tobytes() == values.tobytes()


def test_split_reaps_children_when_the_parent_raises(tmp_path):
    path = tmp_path / "draws.txt"
    path.write_text("1.5\n" * 300)
    parent, real_loadtxt = os.getpid(), laplace_core._loadtxt

    def fail_in_parent(source, **options):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_loadtxt(source, **options)

    with mock.patch.object(laplace_core, "_loadtxt", fail_in_parent), forced_split() as forks:
        with pytest.raises(KeyboardInterrupt):
            load_sample(path)
    assert len(forks) == 2
    assert_no_child_left()


def test_split_reads_crlf_blank_and_whitespace_lines_in_parts(tmp_path):
    # every cut falls just after a newline, so such lines need no read of
    # the whole file in one process
    lines = [f"{i}.25" for i in range(40)]
    lines[3:3] = ["", " ", "\t"]
    lines[20:20] = [" \t ", ""]
    lines[35:35] = ["", "  "]
    path = tmp_path / "draws.txt"
    path.write_bytes("\r\n".join(lines).encode() + b"\r\n")
    expected = load_sample(path).values.tobytes()
    sources, real_loadtxt = [], laplace_core._loadtxt

    def count_loadtxt(source, **options):
        sources.append(source)
        return real_loadtxt(source, **options)

    with mock.patch.object(laplace_core, "_loadtxt", count_loadtxt), forced_split(3) as forks:
        sample = load_sample(path)
    assert_no_child_left()
    assert len(forks) == 2
    # the parent's one read is of its own part, not of the whole file
    assert len(sources) == 1 and is_part_read(sources[0])
    assert sample.values.tobytes() == expected


@pytest.mark.parametrize(
    "lines,column,outcome",
    [
        (numbered_values(30), None, bytes),
        (numbered_values(29) + ["oops"], None, SampleValidationError),
        (["v"] + numbered_values(25) + ['"3"'] + numbered_values(4), "v", bytes),
    ],
    ids=["read", "refused", "in-doubt"],
)
def test_split_read_leaves_no_file_open(tmp_path, lines, column, outcome):
    path = tmp_path / "sample.txt"
    path.write_text("\n".join(lines) + "\n")
    before = len(os.listdir("/proc/self/fd"))
    result, forks = split_outcome(path, column)
    assert len(os.listdir("/proc/self/fd")) == before
    assert forks == 2
    assert isinstance(result, bytes) if outcome is bytes else result[0] is outcome


def test_split_without_in_memory_files_reads_in_one_process(tmp_path):
    path = tmp_path / "draws.txt"
    values = derive_substream(213).gamma(0.5, 2.0, 300)
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()))

    def no_memfd(*args):
        raise OSError("no in-memory files")

    with forced_split() as forks, mock.patch.object(os, "memfd_create", no_memfd):
        sample = load_sample(path)
    assert_no_child_left()
    assert forks == []
    assert sample.values.tobytes() == values.tobytes()


def test_usable_cpus_needs_in_memory_files(monkeypatch):
    monkeypatch.delattr(os, "memfd_create", raising=False)
    assert laplace_core._usable_cpus() == 1


def test_split_needs_one_thread_and_a_large_file(tmp_path):
    path = tmp_path / "draws.txt"
    path.write_text("1.5\n2\n" * 300)
    with forced_split() as forks:
        with mock.patch.object(laplace_core, "SPLIT_BYTES", path.stat().st_size // 2 + 1):
            load_sample(path)
        assert forks == []
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            load_sample(path)
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert forks == []
        load_sample(path)
        assert len(forks) == 2


@pytest.mark.parametrize(
    "data,column,row",
    [
        (b"1.5\n\xff2\n", None, 2),
        (b"1.5\r\n2\r\n\r\n\xff\r\n", None, 4),
        (b"1.5\r2\r\xff3\r", None, 3),
        (b"1.5\n" * 5000 + b"2\xe9\n", None, 5001),
        (b"w,v\n1,1.5\n2,\xff2\n", "v", 3),
        # a byte that is not UTF-8 in another column is refused too
        (b"w,v\n1,1.5\n\xff,2\n", "v", 3),
        (b"w,\xffv\n1,1.5\n", "v", 1),
        # blank lines count as rows (csv.DictReader's line count would give 1304)
        (b"w,v\n" + b"1,2.5\n" * 1300 + b"1," + b"9" * 380 + b"\n" + b"\n\n\n" + b"1,\xff\n", "v", 1306),
        # a bad byte is refused before any row is checked, wherever it lies
        (b"-1\n" + b"1.5\n" * 2000 + b"\xff\n", None, 2002),
        (b"-1\n" + b"1.5\n" * 2100 + b"\xff\n", None, 2102),
    ],
    ids=[
        "text", "crlf", "cr", "past-a-chunk", "csv", "csv-other-column", "csv-header",
        "csv-blank-lines", "after-a-bad-row", "after-a-bad-row-past-a-chunk",
    ],
)
def test_load_refuses_text_that_is_not_utf8(tmp_path, data, column, row):
    expected = (SampleValidationError, f"row {row}: not UTF-8 text")
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert read_outcome(lambda: load_sample(path, column=column)) == expected
    assert split_outcome(path, column)[0] == expected
    for stream in (io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), UnseekableBytes(data)):
        with stream:
            assert read_outcome(lambda: load_sample(stream, column=column)) == expected


def test_row_parser_refuses_escaped_bytes():
    # a stream decoding with errors="surrogateescape", as stdin under a POSIX locale
    data = b"1.5\n\xff2\n"
    escaped = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    with pytest.raises(SampleValidationError) as excinfo:
        load_sample(escaped)
    assert str(excinfo.value) == "row 2: not UTF-8 text"


def test_load_refuses_two_tokens_on_one_line():
    with pytest.raises(SampleValidationError) as excinfo:
        load_sample(io.StringIO("3 4\n"))
    assert str(excinfo.value) == "row 1: cannot parse '3 4'"


def test_load_unseekable_stream_both_paths():
    assert np.array_equal(load_sample(Unseekable("1.5\n\n2\n")).values, [1.5, 2.0])
    assert np.array_equal(load_sample(Unseekable("w,v\n1,2\n"), column="v").values, [2.0])
    with pytest.raises(SampleValidationError) as excinfo:
        load_sample(Unseekable("1.5\n\n-2\n"))
    assert str(excinfo.value) == "row 3: negative value '-2'"
    with pytest.raises(SampleValidationError) as excinfo:
        load_sample(Unseekable("w,v\n1,2\n3,\n"), column="v")
    assert str(excinfo.value) == "row 3: empty cell in column 'v'"


@pytest.mark.parametrize("column", [None, "v"], ids=["text", "csv"])
def test_unseekable_stream_is_read_as_its_file(tmp_path, column):
    # a stream goes through the path read: split as the file of its bytes is,
    # with bitwise its values
    values = derive_substream(214).gamma(0.5, 2.0, 600)
    rows = [f"{v!r}" if column is None else f"{i},{v!r}" for i, v in enumerate(values.tolist())]
    text = ("" if column is None else "w,v\n") + "\n".join(rows) + "\n"
    path = tmp_path / "draws.txt"
    path.write_text(text)
    with forced_split() as file_forks:
        expected = load_sample(path, column=column).values.tobytes()
    with forced_split() as stream_forks:
        sample = load_sample(Unseekable(text), column=column)
    assert_no_child_left()
    assert len(stream_forks) == len(file_forks) == 2
    assert sample.values.tobytes() == expected == values.tobytes()


def test_gz_named_plain_text_reads_like_txt(tmp_path):
    data = "".join(f"{v!r}\n" for v in derive_substream(215).gamma(0.5, 2.0, 400).tolist())
    plain, named = tmp_path / "draws.txt", tmp_path / "draws.txt.gz"
    plain.write_text(data)
    named.write_text(data)
    with forced_split() as forks:
        outcomes = [load_sample(p).values.tobytes() for p in (plain, named)]
    assert_no_child_left()
    assert outcomes[0] == outcomes[1] and len(forks) == 4


@pytest.mark.parametrize(
    "data,column,message",
    [
        # a bad byte is named before any row is checked
        (b"-1\n" + b"1.5\n" * 3000 + b"\xff2\n", None, "row 3002: not UTF-8 text"),
        (b"-1\n1.5\n\xff\n", None, "row 3: not UTF-8 text"),
        (b"w,v\n1,-1\n" + b"2,1.5\n" * 3000 + b"3,\xff\n", "v", "row 3003: not UTF-8 text"),
    ],
    ids=["text", "text-one-chunk", "csv"],
)
def test_stream_refusals_come_in_the_order_of_its_file(tmp_path, data, column, message):
    # a stream's bad byte is refused where its file's is, not before its rows
    plain, named = tmp_path / "bad.txt", tmp_path / "bad.txt.gz"
    plain.write_bytes(data)
    named.write_bytes(data)
    expected = read_outcome(lambda: load_sample(plain, column=column))
    assert expected == (SampleValidationError, message)
    assert read_outcome(lambda: load_sample(named, column=column)) == expected
    for stream in (io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), UnseekableBytes(data)):
        with stream:
            assert read_outcome(lambda: load_sample(stream, column=column)) == expected


def test_staged_stream_file_is_removed(tmp_path, monkeypatch):
    # the temporary file a stream is staged in is gone after a read, a refusal
    # by the row parser, a decode error and an exception inside the read
    staging = tmp_path / "staging"
    staging.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(staging))
    seen = []
    real_loadtxt = laplace_core._loadtxt

    def see_staged(path, **options):
        seen.extend(os.listdir(staging))
        return real_loadtxt(path, **options)

    with mock.patch.object(laplace_core, "_loadtxt", see_staged):
        assert load_sample(Unseekable("1.5\n2\n")).n == 2
    assert len(seen) == 1 and os.listdir(staging) == []
    with pytest.raises(SampleValidationError, match="row 3: negative value '-3'"):
        load_sample(io.StringIO("1\n2\n-3\n"))
    assert os.listdir(staging) == []
    with pytest.raises(SampleValidationError, match="row 2: not UTF-8 text"):
        load_sample(UnseekableBytes(b"1.5\n\xff2\n"))
    assert os.listdir(staging) == []

    def interrupted(path, **options):
        raise KeyboardInterrupt

    with mock.patch.object(laplace_core, "_loadtxt", interrupted), pytest.raises(KeyboardInterrupt):
        load_sample(Unseekable("1.5\n2\n"))
    assert os.listdir(staging) == []


def test_load_crlf_file_names_its_row(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"1.0\r\n\r\n2.0\r\nnan\r\n")
    with pytest.raises(SampleValidationError) as excinfo:
        load_sample(path)
    assert str(excinfo.value) == "row 4: non-finite value 'nan'"


def test_valid_input_never_reaches_row_parser(tmp_path, monkeypatch):
    def refuse_row_parser(*args, **kwargs):
        raise AssertionError("valid input went through the row parser")

    monkeypatch.setattr(laplace_core, "parse_sample_lines", refuse_row_parser)
    monkeypatch.setattr(laplace_core, "parse_sample_csv", refuse_row_parser)
    values = derive_substream(110).gamma(0.5, 2.0, 10**4)
    values[::10] = 0.0
    text = "".join(f"{v!r}\n" for v in values.tolist())
    txt, csv_path = tmp_path / "draws.txt", tmp_path / "draws.csv"
    txt.write_text(text)
    csv_path.write_text("id,amount\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist())))

    read_fd, write_fd = os.pipe()

    def write_pipe():
        with open(write_fd, "w", encoding="utf-8") as sink:
            sink.write(text)

    writer = threading.Thread(target=write_pipe)
    writer.start()
    with open(read_fd, encoding="utf-8") as pipe:
        piped = load_sample(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()

    for sample in (load_sample(txt), load_sample(csv_path, column="amount"), piped):
        assert sample.values.tobytes() == values.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_load_named_pipe_reads_its_bytes(tmp_path):
    # a path that is not a regular file is staged and read as the same bytes in a file
    data = b"1.5\n\n2.25\n3\n"
    fifo, path = tmp_path / "draws.fifo", tmp_path / "draws.txt"
    os.mkfifo(fifo)
    path.write_bytes(data)

    def write_fifo():
        with open(fifo, "wb") as sink:
            sink.write(data)

    writer = threading.Thread(target=write_fifo)
    writer.start()
    sample = load_sample(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert sample.values.tolist() == [1.5, 2.25, 3.0]
    assert sample.values.tobytes() == load_sample(path).values.tobytes()


# ---------------------------------------------------------------------------
# empirical transform


def test_empirical_laplace_basics():
    s = Sample.from_values([1.0, 1.0, 1.0, 1.0])
    assert empirical_laplace(s, 0.0) == 1.0
    assert empirical_laplace(s, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


@pytest.mark.parametrize(
    "s",
    [
        -1.0, math.nan, np.array([0.5, math.nan]), np.array([[0.0], [-0.5]]), "abc", [1, [2]], 1j, object(),
        np.array([1j]), np.array([2 + 3j]), np.array([1 + 0j]),
    ],
    ids=[
        "negative", "nan", "nan-in-array", "negative-in-array", "string", "ragged", "complex", "object",
        "complex-array", "complex-array-real-part", "complex-array-zero-imaginary",
    ],
)
def test_empirical_laplace_refuses_argument(s):
    # refused before any conversion: a complex array warns nothing and is not read at its real part
    with warnings.catch_warnings(), pytest.raises(ConfigError, match="transform argument must be >= 0") as excinfo:
        warnings.simplefilter("error")
        empirical_laplace(Sample.from_values([0.0, 1.0]), s)
    assert isinstance(excinfo.value, ValueError) and excinfo.value.code == "config"


def test_empirical_laplace_at_infinity_is_the_zero_fraction():
    # exp(-s*0) is 1 for every s, so the limit at s = inf is p_hat, as
    # laplace_exact gives P(X = 0); no 0*inf NaN and no warning
    s = Sample.from_values([0.0, 0.0, 1.0, 2.0, 1e-300])
    assert empirical_laplace(s, math.inf) == s.p_hat == 0.4
    grid = empirical_laplace(s, np.array([0.0, math.inf]))
    assert grid.tolist() == [1.0, 0.4]
    assert empirical_laplace(Sample.from_values([1e-300, 3.0]), math.inf) == 0.0


def test_empirical_laplace_hand_value():
    s = Sample.from_values([0.0, 2.0])
    assert empirical_laplace(s, math.log(2.0)) == pytest.approx(0.625, rel=1e-15)


@given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=40))
@settings(max_examples=100, deadline=None)
def test_empirical_laplace_strictly_decreasing_on_moderate_scale(values):
    s = Sample.from_values(values)
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    out = np.asarray(empirical_laplace(s, grid))
    assert np.all(np.diff(out) < 0)


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40))
@settings(max_examples=100, deadline=None)
def test_empirical_laplace_never_increases(values):
    # strict decrease can fall below float resolution for extreme scales, but
    # the transform must never increase
    s = Sample.from_values(values)
    out = np.asarray(empirical_laplace(s, np.array([0.0, 0.5, 1.0, 2.0, 4.0])))
    assert np.all(np.diff(out) <= 0)


# ---------------------------------------------------------------------------
# censoring point


def test_solver_constant_sample():
    batch = Sample.from_values([3.0] * 20).batch
    assert batch.errors == [None]
    assert abs(batch.residual[0]) <= SOLVER_RTOL * (1.0 / E)
    assert batch.a[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert batch.iterations[0] == 0  # the start 1/median is the root


def test_solver_refuses_a_zero_fraction_of_one_over_e():
    # nine zeros and one positive value: L_n falls from 1 to 0.9, never to
    # 1/e, so the solve refuses the row before Newton runs
    batch = Sample.from_values([0.0] * 9 + [1.0]).batch
    (error,) = batch.errors
    assert type(error) is RegimeError
    assert str(error) == "zero fraction 0.900 >= 1/e; the asymptotic covariance is not available in this regime"
    assert np.isnan(batch.a[0]) and np.isnan(batch.residual[0]) and batch.iterations[0] == 0
    assert np.isnan(batch.m_tilde).all() and np.isnan(batch.cov).all()


def test_solver_boundary_at_one_over_e():
    # 36 zeros in 100 sit below 1/e = 0.3679 and solve; 37 reach it, and the
    # solve's refusal is the error every family's fit and test raises
    positive = derive_substream(110).gamma(2.0, 1.0, 64)
    below = Sample.from_values([0.0] * 36 + positive.tolist()).batch
    assert below.errors == [None]
    assert abs(below.residual[0]) <= SOLVER_RTOL * (1.0 / E)
    at = Sample.from_values([0.0] * 37 + positive[:63].tolist())
    message = "zero fraction 0.370 >= 1/e; the asymptotic covariance is not available in this regime"
    (error,) = at.batch.errors
    assert type(error) is RegimeError and str(error) == message
    for call in (fit_ps, fit_tweedie, gof_jacobi):
        with pytest.raises(RegimeError) as caught:
            call(at)
        assert str(caught.value) == message


def test_solver_all_zero():
    (error,) = Sample.from_values([0.0, 0.0]).batch.errors
    assert type(error) is AllZeroSampleError
    assert str(error) == "all observations are zero; L_n(s) == 1 has no root"


@pytest.mark.parametrize(
    "values",
    [
        [1e-310, 2e-310, 3e-310],  # 1/median overflows to inf
        [1e-308, 1e-308, 1e-310],  # the root lies near 3e308, beyond the float maximum
    ],
)
def test_solver_bracket_outside_float_range(values):
    (error,) = Sample.from_values(values).batch.errors
    assert type(error) is DegenerateSampleError
    assert str(error).startswith("censoring point leaves the float range")


def test_solver_median_near_float_maximum():
    # the two middle positive values sum past the float maximum; their
    # midpoint lo/2 + hi/2 does not, so the start 1/median and the root stay finite
    s = Sample.from_values([9e307, 1.7e308, 1e-100, 1.1e308])
    assert positive_median(s) == 9e307 / 2 + 1.1e308 / 2
    batch = s.batch
    assert batch.errors == [None]
    assert 0.0 < batch.a[0] < 1e-307
    assert abs(batch.residual[0]) <= SOLVER_RTOL * (1.0 / E)


@pytest.mark.parametrize(
    "values,a",
    [
        # the root lies just below the float maximum
        ([2e-308, 2e-308, 1e-310], 1.4164e308),
        # sum(x*exp(-A*x)) overflows here, so the slope divides each term by n first
        ([0.0, 0.0, *[1.3170533935270959e308] * 3, 1.5375862431968216e308], 2.1715e-308),
    ],
)
def test_solver_at_the_ends_of_the_float_range(values, a):
    batch = Sample.from_values(values).batch
    assert batch.errors == [None]
    assert batch.a[0] == pytest.approx(a, rel=1e-4)
    assert abs(batch.residual[0]) <= SOLVER_RTOL * (1.0 / E)


@given(st.lists(st.just(0.0) | st.floats(5e-324, 1.7e308), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_solver_meets_the_tolerance_or_leaves_the_float_range(values):
    # Newton on the convex transform never stops at the iteration cap: it
    # solves, or the sample is all zero or has a zero fraction of at least
    # 1/e, or an iterate leaves the positive floats
    batch = Sample.from_values(values).batch
    (error,) = batch.errors
    if isinstance(error, AllZeroSampleError):
        assert not any(values)
    elif isinstance(error, RegimeError):
        assert values.count(0.0) / len(values) >= 1.0 / E
    elif isinstance(error, DegenerateSampleError):
        assert "leaves the float range" in str(error)
    else:
        assert error is None
        assert 0.0 < batch.a[0] < math.inf
        assert abs(batch.residual[0]) <= SOLVER_RTOL * (1.0 / E)


@given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_positive_median_matches_numpy(values):
    assert positive_median(Sample.from_values(values)) == np.median(values)


def test_solver_residual_tolerance_across_laws():
    specs = ["ps:0.5,15", "ps:0.3,2", "tw:0.5,2,0.5", "tw0:1,1,0.1", "we:1,1"]
    for i, text in enumerate(specs):
        spec = DistributionSpec.parse(text)
        for rep in range(40):
            rng = derive_substream(100, i, rep)
            batch = Sample.from_values(sample_spec(spec, rng, size=200)).batch
            assert batch.errors == [None]
            assert abs(batch.residual[0]) <= SOLVER_RTOL * (1.0 / E)


def test_censoring_point_consistency_ps():
    rng = derive_substream(101)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.5,15"), rng, size=10**5))
    a_star = 15.0**-2.0
    assert s.batch.a[0] == pytest.approx(a_star, rel=0.03)


def test_censoring_point_monotone_consistency():
    # nested samples: the larger sample's censoring point should sit closer to
    # the population point in the median over replicates
    spec = DistributionSpec.parse("ps:0.5,2")
    a_star = 2.0 ** (-1.0 / 0.5)
    small, large = [], []
    for rep in range(200):
        rng = derive_substream(102, rep)
        x = sample_spec(spec, rng, size=1200)
        small.append(abs(Sample.from_values(x[:300]).batch.a[0] - a_star))
        large.append(abs(Sample.from_values(x).batch.a[0] - a_star))
    assert np.median(large) < np.median(small)


# ---------------------------------------------------------------------------
# censored moments


def solved(s):
    """The censoring point, normalized moments and covariance of the sample's cached row."""
    batch = s.batch
    assert batch.errors == [None]
    return batch.a[0], batch.m_tilde[0], batch.cov[0]


def moments_at(s, a):
    """The statistics pass over the sample at a fixed censoring point: (m_tilde, cov)."""
    m_tilde, cov = moments_rows(s.values[None], np.array([a]))
    return m_tilde[0], cov[0]


def raw_moment(m_tilde, a, r):
    """The raw censored moment mean(X**r * exp(-A*X)) = m_tilde[r] / A**r."""
    return m_tilde[r] / a**r


def test_moments_constant_sample():
    k = 2.5
    a, m_tilde, _ = solved(Sample.from_values([k] * 50))
    for r in range(5):
        assert raw_moment(m_tilde, a, r) == pytest.approx(k**r * math.exp(-1.0), rel=1e-11)


def test_sample_caches_only_scalars():
    # the cached batch of one holds the solve record (A, iterations,
    # residual), five moments and a 4x4 covariance; an n-length
    # array kept on the sample would pin 8n bytes
    s = Sample.from_values(derive_substream(109).gamma(2.0, 1.0, 1000))
    batch = s.batch
    assert s.batch is batch and batch.errors == [None] and not batch.constant[0]
    assert batch.m_tilde.shape == (1, 5) and batch.cov.shape == (1, 4, 4)
    assert sorted(vars(s)) == ["batch", "n", "values", "zero_count"]
    arrays = [v for v in vars(batch).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7 and all(v.size <= 16 for v in arrays)


def test_moment_zero_equals_target():
    rng = derive_substream(103)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("we:1,1"), rng, size=5000))
    _, m_tilde, _ = solved(s)
    assert abs(m_tilde[0] - 1.0 / E) <= SOLVER_RTOL * (1.0 / E)


def test_moments_ps_first_moment():
    rng = derive_substream(104)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.5,15"), rng, size=10**5))
    # population m_1 = gamma/(e*a_*) with a_* = 15**-2
    expected = 0.5 * 225.0 / E
    a, m_tilde, _ = solved(s)
    assert raw_moment(m_tilde, a, 1) == pytest.approx(expected, rel=0.03)


def test_moments_tw_first_moment():
    rng = derive_substream(105)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw:0.5,2,0.5"), rng, size=10**5))
    a_star = (0.5 + 0.5**0.5) ** 2 - 0.5
    expected = 0.5 * 2.0 * math.exp(-1.0) * (0.5 + a_star) ** -0.5
    a, m_tilde, _ = solved(s)
    assert raw_moment(m_tilde, a, 1) == pytest.approx(expected, rel=0.03)


def test_moments_survive_huge_values():
    # x**4 overflows for the largest entry but exp(-a*x) underflows to an
    # exact zero there, so the product must come back as zero, not NaN
    _, m_tilde, cov = solved(Sample.from_values([0.5, 1.0, 2.0, 1e120]))
    assert np.isfinite(m_tilde).all() and np.isfinite(cov).all()


def test_raw_moments_from_normalized():
    # m_tilde[r] / a**r undoes the normalization y = a*x: mean(x**r * exp(-a*x))
    x = derive_substream(110).gamma(2.0, 1.0, 500)
    m_tilde, _ = moments_at(Sample.from_values(x), 0.7)
    for r in range(5):
        assert raw_moment(m_tilde, 0.7, r) == pytest.approx(np.mean(x**r * np.exp(-0.7 * x)), rel=1e-13)
    assert m_tilde[0] == raw_moment(m_tilde, 0.7, 0) == np.exp(-(0.7 * x)).mean()


# ---------------------------------------------------------------------------
# influence rows and covariance


def power_products(x, a):
    """The per-observation power products (y**r * exp(-y)), r <= 3, y = a*x, shape (4, n)."""
    y = a * np.asarray(x, dtype=float)
    return np.stack([y**r * np.exp(-y) for r in range(4)])


def raw_scales(a, k):
    """The factors (a**-1, ..., a**-k, a) from the normalized rows V~_r, W~ to the raw V_r, W."""
    return np.array([*(a**-r for r in range(1, k + 1)), a])


def test_influence_rows_hand_computed():
    s, a = Sample.from_values([0.0, 2.0]), math.log(2.0)
    m_tilde, _ = moments_at(s, a)
    assert raw_moment(m_tilde, a, 1) == pytest.approx(0.25, rel=1e-15)
    assert raw_moment(m_tilde, a, 2) == pytest.approx(0.5, rel=1e-15)
    lmap, scales = influence_map(m_tilde, k=1), raw_scales(a, 1)
    rows = scales[:, None] * (lmap @ power_products(s.values, a))
    v1 = rows[0]
    assert v1[0] == pytest.approx(-2.0, rel=1e-14)
    assert v1[1] == pytest.approx(0.0, abs=1e-14)


def test_influence_point_row_identity():
    rng = derive_substream(106)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.4,5"), rng, size=2000))
    a, m_tilde, _ = solved(s)
    lmap, scales = influence_map(m_tilde, k=3), raw_scales(a, 3)
    w_mean = scales[3] * (lmap[3] @ m_tilde[:4])
    assert w_mean == pytest.approx(raw_moment(m_tilde, a, 0) / raw_moment(m_tilde, a, 1), rel=1e-12)


def test_influence_rows_degenerate_moments():
    with pytest.raises(DegenerateMomentsError):
        influence_map(np.zeros(5), k=1)


@pytest.mark.parametrize("k", [0, 4, 1.5])
def test_influence_map_refuses_order(k):
    with pytest.raises(ConfigError, match="k must be in 1..3"):
        influence_map(np.full(5, 0.5), k=k)


def test_covariance_constant_rows():
    assert np.allclose(Sample.from_values([2.5] * 10).batch.cov, 0.0)


def test_covariance_two_point_hand_value():
    # two observations: cov = d d^T / 2, with d the difference of their power
    # products (1, 0, 0, 0) at y = 0 and (1, y, y**2, y**3)/4 at y = 2*log(2)
    log2 = math.log(2.0)
    _, cov = moments_at(Sample.from_values([0.0, 2.0]), log2)
    d = np.array([0.75, -log2 / 2.0, -(log2**2), -2.0 * log2**3])
    assert cov == pytest.approx(np.outer(d, d) / 2.0)


def test_covariance_symmetric_psd():
    rng = derive_substream(107)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw:0.6,2.5,0.6"), rng, size=3000))
    a, m_tilde, s_cov = solved(s)
    lmap, scales = influence_map(m_tilde, k=3), raw_scales(a, 3)
    rows_map = scales[:, None] * lmap
    cov = rows_map @ s_cov @ rows_map.T
    assert np.allclose(cov, cov.T)
    eigenvalues = np.linalg.eigvalsh(cov)
    assert eigenvalues.min() >= -1e-10 * np.trace(cov)


def test_covariance_matches_power_product_rows():
    # the statistics pass equals np.cov of the per-observation power products
    rng = derive_substream(111)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw0:1,1,0.1"), rng, size=2000))
    a, _, cov = solved(s)
    assert cov == pytest.approx(np.cov(power_products(s.values, a), ddof=1), rel=1e-12)


def test_point_variance_matches_limit_law():
    # Var of sqrt(n)*(A - a_*) is (L(2 a_*) - e^-2)/m_1^2 in the limit; the
    # W-row variance of the influence rows estimates it
    spec = DistributionSpec.parse("ps:0.5,15")
    rng = derive_substream(108)
    s = Sample.from_values(sample_spec(spec, rng, size=10**5))
    a, m_tilde, cov = solved(s)
    lmap, scales = influence_map(m_tilde, k=1), raw_scales(a, 1)
    var_w = scales[1] ** 2 * (lmap[1] @ cov @ lmap[1])
    a_star = 15.0**-2.0
    m1 = 0.5 * 225.0 / E
    limit = (laplace_exact(spec, 2.0 * a_star) - math.exp(-2.0)) / m1**2
    assert var_w == pytest.approx(limit, rel=0.10)
