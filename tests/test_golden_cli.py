"""Golden CLI output: ``fit`` and ``gof`` stdout and exit codes, pinned byte for byte.

The two samples in ``tests/golden`` were written by ``laplacefit sample``
(``ps:0.5,15 --n 200 --seed 11`` and ``tw0:1,1,0.1 --n 300 --seed 12``) and
are kept as files, so a change to a sampler's stream does not move them.
``golden/cli.json`` holds, for every sample, command, family and format, the
exit code and stdout of ``laplacefit COMMAND FAMILY SAMPLE --format FORMAT``.

A change that should leave every output as it was passes this test
unchanged.  A change that means to move an output rewrites the file with
``python tests/test_golden_cli.py`` and shows the difference in its diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from laplacefit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "cli.json"
SAMPLES = ("ps_0.5_15_n200_seed11.txt", "tw0_1_1_0.1_n300_seed12.txt")
CASES = [
    (sample, command, family, fmt)
    for sample in SAMPLES
    for command in ("fit", "gof")
    for family in ("ps", "tweedie", "jacobi")
    for fmt in ("json", "csv", "human")
]


def key(sample: str, command: str, family: str, fmt: str) -> str:
    return f"{command} {family} {sample} --format {fmt}"


def run(sample: str, command: str, family: str, fmt: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, family, str(GOLDEN / sample), "--format", fmt])
    return {"code": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[key(*case) for case in CASES])
def test_cli_output_is_golden(case):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[key(*case)]
    assert run(*case) == expected


if __name__ == "__main__":
    golden = {key(*case): run(*case) for case in CASES}
    EXPECTED.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {EXPECTED}", file=sys.stderr)
