"""The registry of fitted laws: one record per family, keyed by name.

The CLI and the Monte Carlo harness learn which families exist, and what
each one's parameters and null generators are, only from ``FAMILIES``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING, Callable

from . import jacobi, ps, tweedie
from .laplace_core import Batch
from .results import Fit, FitBatch, GofBatch, GofOutcome

if TYPE_CHECKING:  # the samplers stay unloaded until a command draws
    from .distributions import DistributionSpec


@dataclass(frozen=True)
class Family:
    """One fitted law.

    ``fit_batch(batch, alpha)`` fits every sample of a
    :class:`~laplacefit.laplace_core.Batch` and ``gof_batch(batch, alpha)``
    tests them; ``fit(sample, alpha)`` and ``gof(sample, alpha)`` are their
    batches of one, returning a :class:`~laplacefit.results.Fit` whose
    estimates and intervals follow ``param_names`` and the test outcome.
    ``null_generators`` are the spec families that draw from the law itself,
    and ``truth`` maps such a spec to its parameter values in
    ``param_names`` order, or is None when the law has no sampler.
    """

    name: str
    param_names: tuple[str, ...]
    null_generators: tuple[str, ...]
    fit: Callable[..., Fit]
    gof: Callable[..., GofOutcome]
    fit_batch: Callable[[Batch, float], FitBatch]
    gof_batch: Callable[[Batch, float], GofBatch]
    truth: Callable[[DistributionSpec], tuple[float, ...]] | None


FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "ps", ps.PARAM_NAMES, ("ps",), ps.fit_ps, ps.gof_ps, ps.fit_batch, ps.gof_batch,
            lambda spec: spec.params,
        ),
        Family(
            "tweedie", tweedie.PARAM_NAMES, ("tw", "tw0"), tweedie.fit_tweedie,
            tweedie.gof_tweedie, tweedie.fit_batch, tweedie.gof_batch,
            lambda spec: astuple(spec.tweedie_params()),
        ),
        Family(
            "jacobi", jacobi.PARAM_NAMES, ("jacobi",), jacobi.fit_jacobi, jacobi.gof_jacobi,
            jacobi.fit_batch, jacobi.gof_batch, None,
        ),
    )
}
