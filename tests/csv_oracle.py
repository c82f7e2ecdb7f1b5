"""A CSV column read through ``csv.DictReader``: a test oracle for ``parse_sample_csv``.

This is the dict-per-record form of the CSV row parser, which the library
replaced with a read of each row's cell by index.  The tests check that the
two give the same values, or the same error, on generated CSV text.
"""

from __future__ import annotations

import csv
from typing import TextIO

from laplacefit.errors import SampleValidationError
from laplacefit.ingest import _parse_numbered
from laplacefit.laplace_core import Sample


def dict_reader_csv(stream: TextIO, column: str) -> Sample:
    """Extract a named column from CSV text with ``csv.DictReader`` and validate it."""
    reader = csv.DictReader(stream)
    cells = []
    if reader.fieldnames is None or column not in reader.fieldnames:
        raise SampleValidationError(
            f"column {column!r} not found (have {reader.fieldnames})"
        )
    for row in reader:
        # errors name the file line where the record ends, blank lines included
        cell = (row.get(column) or "").strip()
        if not cell:
            raise SampleValidationError(f"row {reader.line_num}: empty cell in column {column!r}")
        cells.append((reader.line_num, cell))
    return _parse_numbered(cells)
