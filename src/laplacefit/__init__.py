"""Laplace-transform inference with exponential random censoring.

Parameter estimators and goodness-of-fit tests for positive laws with simple
Laplace transforms but intractable densities: the positive stable family, the
Tweedie family (including its structural-zero compound-Poisson branch) and
the cosh-type generalized Jacobi law.  Exact samplers, a deterministic Monte
Carlo harness and a small CLI round out the package.
"""

__version__ = "0.1.0"

from .distributions import (
    DistributionSpec,
    PsParams,
    RngStream,
    Tw0Params,
    TweedieParams,
    derive_substream,
    laplace_exact,
    sample_positive_stable,
    sample_spec,
    sample_tweedie,
    tw0_to_tw,
    tw_to_tw0,
)
from .errors import LaplaceFitError
from .jacobi import fit_jacobi, gof_jacobi
from .laplace_core import (
    CensoringPoint,
    Sample,
    empirical_laplace,
    influence_map,
    load_sample,
    solve_censoring_point,
)
from .ps import fit_ps, gof_ps
from .results import Fit, GofOutcome
from .tweedie import (
    fit_tweedie,
    gof_tweedie,
    tw_censoring_point,
    tw_theoretical_censored_moments,
)

__all__ = [
    "CensoringPoint",
    "DistributionSpec",
    "Fit",
    "GofOutcome",
    "LaplaceFitError",
    "PsParams",
    "RngStream",
    "Sample",
    "Tw0Params",
    "TweedieParams",
    "derive_substream",
    "empirical_laplace",
    "fit_jacobi",
    "fit_ps",
    "fit_tweedie",
    "gof_jacobi",
    "gof_ps",
    "gof_tweedie",
    "influence_map",
    "laplace_exact",
    "load_sample",
    "sample_positive_stable",
    "sample_spec",
    "sample_tweedie",
    "solve_censoring_point",
    "tw0_to_tw",
    "tw_censoring_point",
    "tw_theoretical_censored_moments",
    "tw_to_tw0",
]
