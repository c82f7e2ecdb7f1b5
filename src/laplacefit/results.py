"""Result containers, one per sample and one per batch, the ``Family`` record, JSON helpers."""

from __future__ import annotations

import functools
import math
import statistics
import warnings
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .errors import ConfigError, DegenerateSampleError, LaplaceFitError, refuse

if TYPE_CHECKING:
    from .laplace_core import Batch, Sample


def check_alpha(alpha: float) -> None:
    """Refuse a significance level outside (0, 1), or whose half underflows to 0; ConfigError is a ValueError."""
    if not 0.0 < alpha / 2.0 < 0.5:
        raise ConfigError(f"alpha: must be in (0, 1) with alpha/2 > 0, got {alpha}")


@functools.cache
def normal_quantile(alpha: float) -> float:
    """Two-sided standard normal critical value z_{1 - alpha/2}, as -z_{alpha/2} below alpha = 1e-3."""
    check_alpha(alpha)
    if alpha < 1e-3:  # 1 - alpha/2 would round away alpha's digits
        return -statistics.NormalDist().inv_cdf(alpha / 2.0)
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


@dataclass(frozen=True)
class FitBatch:
    """The fits of a batch of samples; row i of every array belongs to sample i.

    ``estimates`` and ``se`` are (R, p), ``cov_hat`` (R, p, p), ``ci``
    (R, p, 2) and ``a`` (R,).  ``flags`` maps each diagnostics flag, in the
    order a fit lists them, to the (R,) mask of rows that raise it.
    ``errors[i]`` is the error sample i's fit raises, or None; such a row's
    numbers are NaN.
    """

    family: str
    param_names: tuple[str, ...]
    estimates: np.ndarray
    cov_hat: np.ndarray
    se: np.ndarray
    ci: np.ndarray
    a: np.ndarray
    n: int
    alpha: float
    flags: dict[str, np.ndarray]
    constants: dict[str, float]
    errors: list[LaplaceFitError | None]

    def row(self, i: int) -> Fit:
        """Sample i's fit as a :class:`Fit` of plain floats; raises the row's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return Fit(
            self.family, self.param_names, tuple(self.estimates[i].tolist()), self.cov_hat[i],
            tuple(self.se[i].tolist()), tuple(tuple(ci) for ci in self.ci[i].tolist()),
            float(self.a[i]), self.n, self.alpha,
            tuple(name for name, mask in self.flags.items() if mask[i]), self.constants,
        )


def _blank_failed(errors: list[LaplaceFitError | None], *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, each with NaN in the rows (first axis) that have an error."""
    if all(error is None for error in errors):
        return arrays
    failed = np.array([error is not None for error in errors])
    return tuple(np.where(failed.reshape(-1, *[1] * (a.ndim - 1)), math.nan, a) for a in arrays)


def make_fit(
    family: str, param_names: tuple[str, ...], estimates: np.ndarray, cov: np.ndarray,
    units: np.ndarray, a: np.ndarray, n: int, alpha: float, flags: dict[str, np.ndarray],
    errors: list[LaplaceFitError | None], constants: dict[str, float] | None = None,
) -> FitBatch:
    """Standard errors and intervals est +- z_{1-alpha/2} * se, row by row.

    ``cov`` (R, p, p) is the covariance estimate in unit-free form and
    ``units`` (R, p) the factors that take each parameter to its own units:
    se = units * sqrt(diag(cov) / n), so the units are applied after the
    square root and a standard error is a float whenever its estimate is,
    and the reported ``cov_hat`` is cov scaled by units on both sides.  The
    ``nonfinite_covariance`` flag marks the rows with an interval bound that
    is not finite: a standard error that is not finite makes one, and so does
    est +- z*se past the float maximum.
    """
    z = normal_quantile(alpha)
    estimates, cov = _blank_failed(errors, estimates, cov)
    with np.errstate(over="ignore", invalid="ignore"):
        se = units * np.sqrt(np.diagonal(cov, axis1=1, axis2=2) / n)
        cov_hat = cov * units[:, :, None] * units[:, None, :]
        ci = np.empty((*estimates.shape, 2))
        ci[..., 0], ci[..., 1] = estimates - z * se, estimates + z * se
    flags = {**flags, "nonfinite_covariance": ~np.isfinite(ci).all(axis=(1, 2))}
    return FitBatch(
        family, param_names, estimates, cov_hat, se, ci, a, n, alpha, flags, constants or {}, errors
    )


@dataclass(frozen=True)
class GofOutcome:
    """Outcome of a goodness-of-fit test with a centered-normal limit.

    ``statistic`` is already sqrt(n)-scaled; ``sigma_hat`` estimates its
    asymptotic standard deviation, so ``z = statistic / sigma_hat`` is
    standard normal under the null; it rejects where |z| > z_{1-alpha/2}, the intervals' critical value.
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
        """The fields in order, ``statistic`` under the key ``t_stat``."""
        return {"t_stat" if key == "statistic" else key: v for key, v in asdict(self).items()}


@dataclass(frozen=True)
class GofBatch:
    """The tests of a batch of samples: (R,) arrays of the :class:`GofOutcome` fields but ``p_value``.

    ``reject`` is |z| > z_{1-alpha/2}, the intervals' critical value; :meth:`row` forms a read row's p-value.
    ``errors[i]`` is the error sample i's test raises, or None; such a row's numbers are NaN.
    """

    family: str
    statistic: np.ndarray
    sigma_hat: np.ndarray
    z: np.ndarray
    reject: np.ndarray
    alpha: float
    n: int
    errors: list[LaplaceFitError | None]

    def row(self, i: int) -> GofOutcome:
        """Sample i's test outcome; raises the row's error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        return GofOutcome(
            self.family, float(self.statistic[i]), float(self.sigma_hat[i]), float(self.z[i]),
            two_sided_p_value(float(self.z[i])), bool(self.reject[i]), self.alpha, self.n,
        )


def make_gof_outcome(
    family: str, statistic: np.ndarray, sigma_hat: np.ndarray, alpha: float, n: int,
    errors: list[LaplaceFitError | None],
) -> GofBatch:
    """Standardize each row (a zero variance is degenerate); reject where |z| > the intervals' z_{1-alpha/2}."""
    critical = normal_quantile(alpha)
    refuse(errors, sigma_hat == 0.0, lambda i: DegenerateSampleError("test variance estimate is zero"))
    statistic, sigma_hat = _blank_failed(errors, statistic, sigma_hat)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = statistic / sigma_hat
    return GofBatch(family, statistic, sigma_hat, z, np.abs(z) > critical, alpha, n, errors)


@dataclass(frozen=True)
class Family:
    """One fitted law: the record each family module declares as ``FAMILY``.

    ``fit_batch(batch, alpha)`` fits every sample of a
    :class:`~laplacefit.laplace_core.Batch` and ``gof_batch(batch, alpha)``
    tests them; the methods :meth:`fit` and :meth:`gof` are their batches of
    one.  ``null_generators`` are the spec families that draw from the law
    itself; such a spec's ``native`` record holds the true parameters, in
    ``param_names`` order.
    """

    name: str
    param_names: tuple[str, ...]
    null_generators: tuple[str, ...]
    fit_batch: Callable[[Batch, float], FitBatch]
    gof_batch: Callable[[Batch, float], GofBatch]

    def fit(self, sample: Sample, alpha: float = 0.05) -> Fit:
        """Fit one sample: row 0 of :attr:`fit_batch` on ``sample.batch``; raises its error.

        A fit flagged ``degenerate_sample`` (the positive stable law on a
        constant sample) also warns.
        """
        fit = self.fit_batch(sample.batch, alpha).row(0)
        if "degenerate_sample" in fit.diagnostics:
            warnings.warn(
                "constant sample: point estimates are the gamma = 1 boundary and "
                "the covariance rows are constant",
                stacklevel=2,
            )
        return fit

    def gof(self, sample: Sample, alpha: float = 0.05) -> GofOutcome:
        """Test one sample: row 0 of :attr:`gof_batch` on ``sample.batch``; raises its error."""
        return self.gof_batch(sample.batch, alpha).row(0)


def json_safe(obj: Any) -> Any:
    """Recursively replace non-finite floats with None so json.dumps stays strict."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(value) for value in obj]
    return obj
