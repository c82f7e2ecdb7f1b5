"""The registry of fitted laws: one record per family, keyed by name.

The CLI and the Monte Carlo harness learn which families exist, and what
each one's parameters and null generators are, only from ``FAMILIES``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable

from . import jacobi, ps, tweedie
from .distributions import DistributionSpec
from .results import Fit, GofOutcome


@dataclass(frozen=True)
class Family:
    """One fitted law.

    ``fit(sample, alpha)`` returns a :class:`~laplacefit.results.Fit` whose
    estimates and intervals follow ``param_names``; ``gof(sample, alpha)``
    returns the test outcome.  ``null_generators`` are the spec families that
    draw from the law itself, and ``truth`` maps such a spec to its parameter
    values in ``param_names`` order, or is None when the law has no sampler.
    """

    name: str
    param_names: tuple[str, ...]
    null_generators: tuple[str, ...]
    fit: Callable[..., Fit]
    gof: Callable[..., GofOutcome]
    truth: Callable[[DistributionSpec], tuple[float, ...]] | None


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("ps", ps.PARAM_NAMES, ("ps",), ps.fit_ps, ps.gof_ps, lambda spec: spec.params),
        Family(
            "tweedie",
            tweedie.PARAM_NAMES,
            ("tw", "tw0"),
            tweedie.fit_tweedie,
            tweedie.gof_tweedie,
            lambda spec: astuple(spec.tweedie_params()),
        ),
        Family("jacobi", jacobi.PARAM_NAMES, ("jacobi",), jacobi.fit_jacobi, jacobi.gof_jacobi, None),
    )
}
