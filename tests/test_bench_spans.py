"""The benchmark's traced spans must name functions that exist, and its runs must pass.

``bench/tracing.py`` reports a span it cannot find as 0 calls, so a rename in
``laplacefit`` would silently zero a per-layer metric; this test catches it.
The spans in ``RETIRED`` name functions that the statistics pass,
``Sample.batch``, the solve record kept in ``Batch`` and the complex-step
derivative replaced, and the readers now in ``ingest``; they must stay
absent until the benchmark's ``SPANS`` drops them.  A short traced run of each Monte Carlo workload checks that
the tracer still installs and that the runs pass their checks.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

#: spans whose functions were folded into the statistics pass, the
#: per-sample moment functions that ``Sample.batch`` replaced, the one-sample
#: solve whose record ``Batch`` now keeps, the central-difference Jacobian
#: that the Tweedie complex step replaced, and the readers that moved from
#: ``laplace_core`` to ``ingest``
RETIRED = (
    "laplace_core.solve_censoring_point",
    "laplace_core.influence_rows",
    "laplace_core.sample_covariance",
    "laplace_core.censored_moments",
    "laplace_core.censored_moments_at",
    "numdiff.central_diff_jacobian",
    "laplace_core.load_sample",
    "laplace_core.parse_sample_lines",
    "laplace_core.parse_sample_csv",
)


def load_spans() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolves(span: str) -> bool:
    mod_name, func_name = span.split(".")
    try:
        owner = importlib.import_module(f"laplacefit.{mod_name}")
    except ModuleNotFoundError:
        return False
    if func_name == "from_values":
        owner = owner.Sample
    return callable(getattr(owner, func_name, None))


@pytest.mark.parametrize("span", load_spans())
def test_span_resolves_in_laplacefit(span):
    if span in RETIRED:
        assert not resolves(span), f"retired span {span} resolves again"
    else:
        assert resolves(span), f"{span} does not resolve"


@pytest.mark.parametrize("workload", ["mc_ps_small_n", "mc_tweedie"])
def test_traced_workload_passes_its_checks(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(result["metrics"]) == [m["name"] for m in declared["per_layer"]]
