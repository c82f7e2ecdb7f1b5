"""Golden harness report: ``to_json()`` and ``to_csv()`` of a small run, pinned byte for byte.

``CONFIGS`` go through one ``run_configs`` call, config i with base seed
31 + i.  Together their cells reach solved rows, solves that fail (their
statistics NaN through the moment pass), regime refusals, sampler errors and
invalid draws:

- ``pa0:5,2,0.45`` fails rows with ``regime``;
- ``pa0:5,2,0.9`` with ``all_zero_sample`` and ``regime``;
- ``pa:5,1e-320`` with ``degenerate_sample``: its values are subnormal, so
  the censoring-point solve leaves the float range;
- ``lnsqrt:30,1`` with ``invalid_sample``: every draw is inf;
- ``tw:0.6,200,5`` with ``tilted_rejection_infeasible``, which depends on
  ``MAX_TILT_WORK``.

The deterministic conversion table, ``run_table(6)``, is pinned beside it.

A change that should leave every output as it was passes this test
unchanged.  A change that means to move an output rewrites the files with
``python tests/test_golden_report.py`` and shows the difference in its diff.
"""

import sys
from pathlib import Path

import pytest

from laplacefit.distributions import DistributionSpec
from laplacefit.montecarlo import ExperimentConfig, run_configs, run_table

GOLDEN = Path(__file__).resolve().parent / "golden"

ROWS = (
    # generator, fit target, metrics, n grid, replications
    ("ps:0.5,15", "ps", ("rrmse", "coverage", "size"), (60, 150), 60),
    ("tw0:1,1,0.1", "tweedie", ("rrmse", "coverage", "size"), (300,), 40),
    ("we0:5,1,0.1", "tweedie", ("power",), (300,), 40),
    ("pa:5,2", "jacobi", ("power",), (30,), 40),
    ("pa0:5,2,0.45", "ps", ("power",), (40,), 40),
    ("pa0:5,2,0.9", "ps", ("power",), (10,), 40),
    ("pa:5,1e-320", "ps", ("power",), (30,), 10),
    ("lnsqrt:30,1", "ps", ("power",), (20,), 10),
    ("tw:0.6,200,5", "tweedie", ("rrmse",), (60,), 10),
)
CONFIGS = [
    ExperimentConfig(
        generator=DistributionSpec.parse(generator),
        fit_target=target,
        n_grid=n_grid,
        replications=replications,
        base_seed=31 + i,
        metrics=metrics,
    )
    for i, (generator, target, metrics, n_grid, replications) in enumerate(ROWS)
]


def reports() -> dict[str, str]:
    """Each golden file's name and the text the current code writes for it."""
    report, table6 = run_configs(CONFIGS), run_table(6)
    return {
        "report.json": report.to_json(),
        "report.csv": report.to_csv(),
        "table6.json": table6.to_json(),
        "table6.csv": table6.to_csv(),
    }


@pytest.fixture(scope="module")
def written() -> dict[str, str]:
    return reports()


@pytest.mark.parametrize("name", ["report.json", "report.csv", "table6.json", "table6.csv"])
def test_report_is_golden(written, name):
    assert written[name].encode("utf-8") == (GOLDEN / name).read_bytes()


def test_report_reaches_every_failure_kind(written):
    for kind in (
        "regime", "all_zero_sample", "degenerate_sample", "invalid_sample",
        "tilted_rejection_infeasible",
    ):
        assert f'"{kind}"' in written["report.json"], kind


if __name__ == "__main__":
    for name, text in reports().items():
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
