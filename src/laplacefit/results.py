"""Shared result containers and JSON helpers."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Any


def normal_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value z_{1 - alpha/2}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)


def two_sided_p_value(z: float) -> float:
    """Two-sided standard normal tail probability P(|Z| >= |z|) = erfc(|z|/sqrt(2))."""
    return math.erfc(abs(z) * math.sqrt(0.5))


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
