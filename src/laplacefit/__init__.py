"""Laplace-transform inference with exponential random censoring.

Parameter estimators and goodness-of-fit tests for positive laws with simple
Laplace transforms but intractable densities: the positive stable family, the
Tweedie family (including its structural-zero compound-Poisson branch) and
the cosh-type generalized Jacobi law.  Exact samplers, a deterministic Monte
Carlo harness and a small CLI round out the package.

The exported names and the submodules load on first use (Scientific Python
SPEC 1), so ``import laplacefit`` costs only this module, and a
``laplacefit fit`` run never loads the samplers or the Monte Carlo harness.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "distributions",
    "errors",
    "families",
    "ingest",
    "jacobi",
    "laplace_core",
    "montecarlo",
    "ps",
    "results",
    "tweedie",
)

#: submodule -> the names it exports
_SUBMODULE_EXPORTS = {
    "distributions": (
        "DistributionSpec",
        "PsParams",
        "RngStream",
        "Tw0Params",
        "TweedieParams",
        "derive_substream",
        "laplace_exact",
        "sample_positive_stable",
        "sample_spec",
        "sample_tweedie",
        "tw0_to_tw",
        "tw_censoring_point",
        "tw_theoretical_censored_moments",
        "tw_to_tw0",
    ),
    "errors": ("LaplaceFitError",),
    "ingest": ("load_sample",),
    "jacobi": ("fit_jacobi", "gof_jacobi"),
    "laplace_core": ("Sample", "empirical_laplace", "influence_map"),
    "ps": ("fit_ps", "gof_ps"),
    "results": ("Fit", "GofOutcome"),
    "tweedie": ("fit_tweedie", "gof_tweedie"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
