"""Shared result containers and JSON helpers."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ConfigError, DegenerateSampleError


def check_alpha(alpha: float) -> None:
    """Refuse a significance level outside (0, 1); ConfigError is a ValueError."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")


def normal_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value z_{1 - alpha/2}."""
    check_alpha(alpha)
    return statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)


def two_sided_p_value(z: float) -> float:
    """Two-sided standard normal tail probability P(|Z| >= |z|) = erfc(|z|/sqrt(2))."""
    return math.erfc(abs(z) * math.sqrt(0.5))


@dataclass(frozen=True)
class Fit:
    """Point estimates, covariance estimate and confidence intervals of one fit.

    ``estimates``, ``se`` and ``ci`` are tuples in ``param_names`` order.
    ``cov_hat`` estimates the asymptotic covariance of sqrt(n) times the
    estimates, ``a`` is the censoring point and ``constants`` holds the
    family's fixed constants that its JSON reports (the Jacobi ``c``).
    """

    family: str
    param_names: tuple[str, ...]
    estimates: tuple[float, ...]
    cov_hat: np.ndarray
    se: tuple[float, ...]
    ci: tuple[tuple[float, float], ...]
    a: float
    n: int
    alpha: float
    diagnostics: tuple[str, ...]
    constants: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        names = self.param_names
        payload: dict[str, Any] = {"family": self.family}
        payload.update((f"{p}_hat", e) for p, e in zip(names, self.estimates))
        payload.update((f"se_{p}", s) for p, s in zip(names, self.se))
        payload.update((f"ci_{p}", list(ci)) for p, ci in zip(names, self.ci))
        payload.update(a=self.a, n=self.n, alpha=self.alpha, diagnostics=list(self.diagnostics))
        payload.update(self.constants)
        return payload


def make_fit(
    family: str, param_names: tuple[str, ...], estimates: Sequence[float], cov_hat: np.ndarray,
    a: float, n: int, alpha: float, diagnostics: Sequence[str],
    constants: dict[str, float] | None = None,
) -> Fit:
    """Standard errors sqrt(cov_hat[i, i] / n) and intervals est +- z_{1-alpha/2} * se.

    The estimates are stored as plain floats, whatever numeric type the map returned.
    """
    z = normal_quantile(alpha)
    estimates = tuple(float(e) for e in estimates)
    se = tuple(math.sqrt(cov_hat[i, i] / n) for i in range(len(param_names)))
    ci = tuple((e - z * s, e + z * s) for e, s in zip(estimates, se))
    return Fit(
        family, param_names, estimates, cov_hat, se, ci, a, n, alpha, tuple(diagnostics),
        constants or {},
    )


@dataclass(frozen=True)
class GofOutcome:
    """Outcome of a goodness-of-fit test with a centered-normal limit.

    ``statistic`` is already sqrt(n)-scaled; ``sigma_hat`` estimates its
    asymptotic standard deviation, so ``z = statistic / sigma_hat`` is
    standard normal under the null and the test rejects two-sided.
    """

    family: str
    statistic: float
    sigma_hat: float
    z: float
    p_value: float
    reject: bool
    alpha: float
    n: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "t_stat": self.statistic,
            "sigma_hat": self.sigma_hat,
            "z": self.z,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "n": self.n,
        }


def make_gof_outcome(
    family: str, statistic: float, sigma_hat: float, alpha: float, n: int
) -> GofOutcome:
    """Standardize the statistic; a zero variance estimate is a degenerate sample."""
    check_alpha(alpha)
    if sigma_hat == 0.0:
        raise DegenerateSampleError("test variance estimate is zero")
    z = statistic / sigma_hat
    p = two_sided_p_value(z)
    return GofOutcome(
        family=family,
        statistic=statistic,
        sigma_hat=sigma_hat,
        z=z,
        p_value=p,
        reject=bool(p < alpha),
        alpha=alpha,
        n=n,
    )


def json_safe(obj: Any) -> Any:
    """Recursively replace non-finite floats with None so json.dumps stays strict."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(value) for value in obj]
    return obj
