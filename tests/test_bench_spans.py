"""The benchmark's traced spans must name functions that exist.

``bench/tracing.py`` reports a span it cannot find as 0 calls, so a rename in
``laplacefit`` would silently zero a per-layer metric; this test catches it.
The spans in ``RETIRED`` name functions the statistics pass replaced; they
must stay absent until the benchmark's ``SPANS`` drops them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

#: spans whose functions were folded into ``laplace_core.censored_moments_at``
RETIRED = ("laplace_core.influence_rows", "laplace_core.sample_covariance")


def load_spans() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolves(span: str) -> bool:
    mod_name, func_name = span.split(".")
    owner = importlib.import_module(f"laplacefit.{mod_name}")
    if func_name == "from_values":
        owner = owner.Sample
    return callable(getattr(owner, func_name, None))


@pytest.mark.parametrize("span", load_spans())
def test_span_resolves_in_laplacefit(span):
    if span in RETIRED:
        assert not resolves(span), f"retired span {span} resolves again"
    else:
        assert resolves(span), f"{span} does not resolve"
