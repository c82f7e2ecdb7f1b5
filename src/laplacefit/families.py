"""The registry of fitted laws: one record per family, keyed by name.

The CLI and the Monte Carlo harness learn which families exist, and what
each one's parameters and null generators are, only from ``FAMILIES``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Any, Callable

from .distributions import DistributionSpec
from .jacobi import fit_jacobi, gof_jacobi
from .ps import fit_ps, gof_ps
from .results import GofOutcome
from .tweedie import fit_tweedie, gof_tweedie


@dataclass(frozen=True)
class Family:
    """One fitted law.

    ``fit(sample, alpha)`` returns a record with ``<name>_hat`` and
    ``ci_<name>`` for every name in ``param_names``; ``gof(sample, alpha)``
    returns the test outcome.  ``null_generators`` are the spec families that
    draw from the law itself, and ``truth`` maps such a spec to its parameter
    values in ``param_names`` order, or is None when the law has no sampler.
    """

    name: str
    param_names: tuple[str, ...]
    null_generators: tuple[str, ...]
    fit: Callable[..., Any]
    gof: Callable[..., GofOutcome]
    truth: Callable[[DistributionSpec], tuple[float, ...]] | None


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("ps", ("gamma", "lambda"), ("ps",), fit_ps, gof_ps, lambda spec: spec.params),
        Family(
            "tweedie",
            ("gamma", "lambda", "theta"),
            ("tw", "tw0"),
            fit_tweedie,
            gof_tweedie,
            lambda spec: astuple(spec.tweedie_params()),
        ),
        Family("jacobi", ("gamma",), ("jacobi",), fit_jacobi, gof_jacobi, None),
    )
}
