"""The paper's tables: the benchmark's copy agrees with them, and they load without numpy.

``bench/designs.py`` keeps its own copy of the published values and the
desk-scale tolerances; this test keeps it equal to ``laplacefit.tables``.
"""

import importlib.util
from pathlib import Path

import pytest

from laplacefit.families import FAMILIES
from laplacefit.tables import COVERAGE_BAND, TABLE_DESIGNS, WE0_POWER_MIN

from test_startup import run_fresh

DESIGNS = Path(__file__).resolve().parents[1] / "bench" / "designs.py"


def test_bench_copy_equals_the_tables():
    spec = importlib.util.spec_from_file_location("bench_designs", DESIGNS)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    copies = {1: bench.TABLE1_RRMSE, 2: bench.TABLE2_RRMSE, 3: bench.TABLE3_SIZE, 4: bench.TABLE4_SIZE}
    for table, copy in copies.items():
        assert {cell: TABLE_DESIGNS[table].value(*cell) for cell in copy} == copy
    assert bench.POWER_LN0_1500 == TABLE_DESIGNS[7].value("ln0:5,1,0.1", 1500)
    assert bench.POWER_WE0_500_MIN == WE0_POWER_MIN
    # one benchmark run pools about a desk-scale suite's replicates, so it checks the desk tolerances
    assert bench.TOL_RRMSE_PS == TABLE_DESIGNS[1].tolerance.desk
    assert bench.TOL_RRMSE_TW == TABLE_DESIGNS[2].tolerance.desk
    assert bench.TOL_SIZE == TABLE_DESIGNS[3].tolerance.desk == TABLE_DESIGNS[4].tolerance.desk
    assert bench.TOL_POWER == TABLE_DESIGNS[7].tolerance["ln0:5,1,0.1"].at(full=False)
    # the bench's centre and half-width of the stated band differ from it in the last bits
    lo, hi = COVERAGE_BAND.desk
    assert bench.NOMINAL_COVERAGE == pytest.approx((lo + hi) / 2, abs=1e-12)
    assert bench.TOL_COVERAGE == pytest.approx((hi - lo) / 2, abs=1e-12)


@pytest.mark.parametrize("table", sorted(TABLE_DESIGNS))
def test_published_cells_fit_the_design(table):
    # one value per n, and in an RRMSE table one per parameter of the fit target
    design = TABLE_DESIGNS[table]
    assert all(len(values) == len(design.n_grid) for values in filter(None, design.published.values()))
    width = len(FAMILIES[design.fit_target].param_names)
    for _row, _n, value in design.cells():
        assert len(value) == width if design.metrics == ("rrmse",) else isinstance(value, float)


def test_import_loads_neither_numpy_nor_another_submodule():
    loaded = run_fresh("import json, sys, laplacefit.tables; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("laplacefit.")] == ["laplacefit.tables"]
