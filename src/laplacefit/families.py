"""The registry of fitted laws: each family module's ``FAMILY`` record, keyed by name.

The CLI and the Monte Carlo harness learn which families exist, and what
each one's parameters and null generators are, only from ``FAMILIES``.
The records themselves, :class:`~laplacefit.results.Family`, are declared
in ``ps``, ``tweedie`` and ``jacobi``.
"""

from __future__ import annotations

from . import jacobi, ps, tweedie
from .results import Family

FAMILIES: dict[str, Family] = {
    family.name: family for family in (ps.FAMILY, tweedie.FAMILY, jacobi.FAMILY)
}
