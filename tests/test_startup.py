"""Start-up: ``import laplacefit`` and the CLI load only what ``fit`` and ``gof`` run.

Every check runs in a fresh interpreter, since this test session has long
since imported every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: what ``fit`` and ``gof`` run: the CLI, the sample reader, the family
#: registry and its three families, the engine, the result records and the
#: error classes
FIT_PATH = {
    "laplacefit",
    "laplacefit.cli",
    "laplacefit.errors",
    "laplacefit.families",
    "laplacefit.ingest",
    "laplacefit.jacobi",
    "laplacefit.laplace_core",
    "laplacefit.ps",
    "laplacefit.results",
    "laplacefit.tweedie",
}


def run_fresh(code: str):
    """The JSON that ``code``, run in a fresh interpreter, prints."""
    pythonpath = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def loaded_by_cli_import() -> set[str]:
    """The modules that ``import laplacefit, laplacefit.cli`` loads."""
    return set(run_fresh("import json, sys, laplacefit, laplacefit.cli; print(json.dumps(sorted(sys.modules)))"))


def test_cli_import_loads_only_the_fit_path(loaded_by_cli_import):
    # FIT_PATH holds neither the samplers (distributions) nor the harness (montecarlo)
    assert {m for m in loaded_by_cli_import if m.split(".")[0] == "laplacefit"} == FIT_PATH


def test_import_leaves_numpy_random_out(loaded_by_cli_import):
    assert "numpy.random" not in loaded_by_cli_import


def test_import_leaves_scipy_out(loaded_by_cli_import):
    assert "scipy" not in loaded_by_cli_import


def test_import_leaves_multiprocessing_out(loaded_by_cli_import):
    # the process pool is imported only when run_configs runs jobs > 1
    assert "multiprocessing" not in loaded_by_cli_import


def test_engine_import_leaves_the_reader_out():
    # the method module never imports the sample reader, nor what only it uses
    loaded = run_fresh("import json, sys, laplacefit.laplace_core; print(json.dumps(sorted(sys.modules)))")
    assert "laplacefit.ingest" not in loaded and "csv" not in loaded


def test_bare_import_loads_no_submodule():
    loaded = run_fresh("import json, sys, laplacefit; print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.startswith("laplacefit.")] == []


def test_every_export_and_submodule_resolves():
    # each exported name is the object its submodule defines, each submodule on
    # disk is an attribute of the package, and dir() lists both
    report = run_fresh(
        """
import json, pkgutil, laplacefit
on_disk = [m.name for m in pkgutil.iter_modules(laplacefit.__path__) if not m.name.startswith("_")]
print(json.dumps({
    "all": laplacefit.__all__,
    "exports": [
        name for name in laplacefit.__all__
        if getattr(laplacefit, name) is getattr(getattr(laplacefit, laplacefit._EXPORTS[name]), name)
    ],
    "submodules": {name: getattr(laplacefit, name).__name__ for name in on_disk},
    "dir": dir(laplacefit),
}))
"""
    )
    exports, submodules = report["exports"], report["submodules"]
    assert exports == report["all"] == sorted(exports) and "RngStream" in exports
    assert "montecarlo" in submodules and "cli" in submodules
    assert submodules == {name: f"laplacefit.{name}" for name in submodules}
    assert set(exports) | set(submodules) <= set(report["dir"])


def test_unknown_attribute_is_an_attribute_error():
    import laplacefit

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        laplacefit.no_such_name  # noqa: B018
