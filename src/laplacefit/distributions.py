"""Samplers, exact Laplace transforms and parameter conversions.

Covers the target families (positive stable, Tweedie and its mean/zero
reparametrization, cosh-Jacobi) and the alternative laws used by the Monte
Carlo harness (positive Linnik, Pareto, Weibull, log-normal, exp-square
log-normal, zero-inflated wrappers).

Linnik convention: ``LI(gamma, lam, delta)`` is the gamma scale mixture
``V**(1/gamma) * Z`` with ``V ~ Gamma(shape=delta, scale=lam)`` and
``Z`` positive stable with unit scale, so its Laplace transform is
``(1 + lam * s**gamma) ** -delta``.  Other conventions exist in the
literature and change nothing here except the meaning of ``delta``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidRegimeError,
    SpecFormatError,
    TiltedRejectionInfeasibleError,
    UnsupportedOperationError,
)

#: deterministic pseudo-random stream; one per Monte Carlo replicate
RngStream = np.random.Generator

#: minimum acceptance rate before tilted rejection is declared infeasible
MIN_TILT_ACCEPTANCE = 1e-6


def derive_substream(base_seed: int, *key: int) -> RngStream:
    """Derive an independent reproducible stream from a base seed and a key.

    Identical ``(base_seed, key)`` pairs produce bitwise-identical streams
    regardless of how many other streams exist or on which thread they are
    consumed, which is what makes parallel replication deterministic.
    """
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=key))


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class PsParams:
    """Positive stable law with transform exp(-lam * s**gamma)."""

    gamma: float
    lam: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise SpecFormatError(f"stable index must be in (0, 1], got {self.gamma}")
        if not self.lam > 0.0:
            raise SpecFormatError(f"scale must be positive, got {self.lam}")


@dataclass(frozen=True)
class TweedieParams:
    """Tweedie law with transform exp(sgn(gamma)*lam*(theta**gamma - (theta+s)**gamma)).

    ``gamma`` in (0, 1] with ``theta >= 0`` gives the exponentially tilted
    stable branch; ``gamma < 0`` with ``theta > 0`` gives the compound
    Poisson-gamma branch, which places an atom exp(-lam*theta**gamma) at zero.
    """

    gamma: float
    lam: float
    theta: float

    def __post_init__(self) -> None:
        if self.gamma == 0.0 or self.gamma > 1.0:
            raise SpecFormatError(f"index must be in (-inf, 1] \\ {{0}}, got {self.gamma}")
        if not self.lam > 0.0:
            raise SpecFormatError(f"scale must be positive, got {self.lam}")
        if self.gamma > 0.0 and self.theta < 0.0:
            raise SpecFormatError(f"tilt must be >= 0, got {self.theta}")
        if self.gamma < 0.0 and not self.theta > 0.0:
            raise SpecFormatError("compound-Poisson branch (gamma < 0) needs theta > 0")

    @property
    def zero_probability(self) -> float:
        """P(X = 0); positive only on the compound-Poisson branch."""
        if self.gamma < 0.0:
            return math.exp(-self.lam * self.theta**self.gamma)
        return 0.0


@dataclass(frozen=True)
class Tw0Params:
    """Compound-Poisson Tweedie parametrized by mean, rate-like w and zero probability."""

    mu: float
    w: float
    p: float

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise SpecFormatError(f"mean must be positive, got {self.mu}")
        if not self.w > 0.0:
            raise SpecFormatError(f"w must be positive, got {self.w}")
        if not 0.0 < self.p < 1.0:
            raise SpecFormatError(f"zero probability must be in (0, 1), got {self.p}")


def tw0_to_tw(p3: Tw0Params) -> TweedieParams:
    """Convert a (mu, w, p) triple to the native (gamma, lam, theta) parameters.

    Inverts mu = |gamma|*lam*theta**(gamma-1), w = (1-gamma)/theta and
    p = exp(-lam*theta**gamma) in closed form.  The resulting index is
    gamma = mu / (mu + w*log p), which is negative exactly when
    mu + w*log p < 0; anything else is outside the compound-Poisson range.
    A triple whose theta**gamma or theta**(gamma-1) leaves the normal float
    range, or whose lam is not finite, is refused too: its native parameters
    cannot be represented well enough to convert back.
    """
    denom = p3.mu + p3.w * math.log(p3.p)
    if denom >= 0.0:
        raise InvalidRegimeError(
            f"mu + w*log(p) = {denom:.6g} >= 0 gives a non-negative index"
        )
    gamma = p3.mu / denom
    theta = (1.0 - gamma) / p3.w
    try:
        theta_g, theta_g1 = theta**gamma, theta ** (gamma - 1.0)
    except OverflowError:
        theta_g = theta_g1 = math.inf
    lam = -math.log(p3.p) / theta_g if theta_g >= sys.float_info.min else math.inf
    if theta_g1 < sys.float_info.min or not 0.0 < lam < math.inf:
        raise InvalidRegimeError(
            f"index {gamma:.6g} and tilt {theta:.6g} put theta**gamma or lam "
            "outside the float range"
        )
    return TweedieParams(gamma, lam, theta)


def tw_to_tw0(params: TweedieParams) -> Tw0Params:
    """Inverse of :func:`tw0_to_tw`; only defined on the compound-Poisson branch."""
    if params.gamma >= 0.0:
        raise InvalidRegimeError("mean/zero-probability form needs gamma < 0")
    g, lam, th = params.gamma, params.lam, params.theta
    return Tw0Params(abs(g) * lam * th ** (g - 1.0), (1.0 - g) / th, math.exp(-lam * th**g))


# ---------------------------------------------------------------------------
# tagged distribution specs

#: family tag -> number of positional parameters
_FAMILY_ARITY = {
    "ps": 2,
    "tw": 3,
    "tw0": 3,
    "li": 3,
    "pa": 2,
    "we": 2,
    "ln": 2,
    "lnsqrt": 2,
    "jacobi": 1,
}

#: families that accept the zero-inflation suffix in text form
_ZERO_INFLATABLE = ("li", "pa", "we", "ln", "lnsqrt")


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged description of a generating law.

    ``p_zero > 0`` wraps the base law in a zero-inflated mixture that emits an
    exact zero with probability ``p_zero``.  Canonical text form is
    ``family:p1,p2,...`` with a ``0`` suffix on the family for zero inflation,
    e.g. ``ps:0.5,15``, ``tw0:1,1,0.1``, ``pa0:5,2,0.1``.
    """

    family: str
    params: tuple[float, ...]
    p_zero: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_ARITY:
            raise SpecFormatError(f"unknown family {self.family!r}")
        if len(self.params) != _FAMILY_ARITY[self.family]:
            raise SpecFormatError(
                f"{self.family} takes {_FAMILY_ARITY[self.family]} parameters, "
                f"got {len(self.params)}"
            )
        if not 0.0 <= self.p_zero < 1.0:
            raise SpecFormatError(f"zero-inflation must be in [0, 1), got {self.p_zero}")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        self._validate_params()

    def _validate_params(self) -> None:
        fam, p = self.family, self.params
        if fam == "ps":
            PsParams(*p)
        elif fam == "tw":
            TweedieParams(*p)
        elif fam == "tw0":
            Tw0Params(*p)
        elif fam == "jacobi":
            if not 0.0 < p[0] <= 0.5:
                raise SpecFormatError(f"jacobi index must be in (0, 0.5], got {p[0]}")
        elif fam == "li":
            if not (0.0 < p[0] <= 1.0 and p[1] > 0.0 and p[2] > 0.0):
                raise SpecFormatError(f"invalid li parameters {p}")
        elif fam in ("pa", "we"):
            if not (p[0] > 0.0 and p[1] > 0.0):
                raise SpecFormatError(f"invalid {fam} parameters {p}")
        else:  # ln, lnsqrt: any mu, sigma > 0
            if not p[1] > 0.0:
                raise SpecFormatError(f"{fam} sigma must be positive, got {p[1]}")

    @classmethod
    def parse(cls, text: str) -> "DistributionSpec":
        """Parse the canonical ``family:p1,p2,...`` text form."""
        head, sep, tail = text.strip().partition(":")
        if not sep or not tail:
            raise SpecFormatError(f"expected 'family:p1,p2,...', got {text!r}")
        fam = head.strip().lower()
        try:
            values = tuple(float(tok) for tok in tail.split(","))
        except ValueError as exc:
            raise SpecFormatError(f"bad number in spec {text!r}: {exc}") from None
        if fam in _FAMILY_ARITY:
            return cls(fam, values)
        if fam.endswith("0") and fam[:-1] in _ZERO_INFLATABLE:
            if len(values) != _FAMILY_ARITY[fam[:-1]] + 1:
                raise SpecFormatError(
                    f"{fam} takes {_FAMILY_ARITY[fam[:-1]] + 1} parameters "
                    f"(last one is the zero probability), got {len(values)}"
                )
            return cls(fam[:-1], values[:-1], p_zero=values[-1])
        raise SpecFormatError(f"unknown family {head!r}")

    def text(self) -> str:
        fam = self.family + "0" if self.p_zero > 0.0 else self.family
        values = self.params + ((self.p_zero,) if self.p_zero > 0.0 else ())
        return fam + ":" + ",".join(format(v, "g") for v in values)

    def tweedie_params(self) -> TweedieParams:
        """Native Tweedie parameters for the tw/tw0 families."""
        if self.family == "tw":
            return TweedieParams(*self.params)
        if self.family == "tw0":
            return tw0_to_tw(Tw0Params(*self.params))
        raise SpecFormatError(f"{self.family} is not a Tweedie spec")


# ---------------------------------------------------------------------------
# samplers


def _standard_one_sided_stable(gamma: float, rng: RngStream, size: int) -> np.ndarray:
    # Kanter's rejection-free representation, requires 0 < gamma < 1:
    # with U ~ Uniform(0, pi) and W ~ Exp(1),
    #   sin(gamma*U)/sin(U) * (sin((1-gamma)*U)/(W*sin(U)))**((1-gamma)/gamma)
    # has Laplace transform exp(-s**gamma).
    u = rng.uniform(0.0, np.pi, size)
    w = rng.standard_exponential(size)
    su = np.sin(u)
    ratio = (1.0 - gamma) / gamma
    return np.sin(gamma * u) / su * (np.sin((1.0 - gamma) * u) / (w * su)) ** ratio


def sample_positive_stable(
    params: PsParams, rng: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Draw from the positive stable law with transform exp(-lam * s**gamma).

    For ``gamma == 1`` the law is the point mass at ``lam`` and no random
    numbers are consumed.
    """
    n = 1 if size is None else int(size)
    if params.gamma == 1.0:
        out = np.full(n, params.lam)
    else:
        out = params.lam ** (1.0 / params.gamma) * _standard_one_sided_stable(
            params.gamma, rng, n
        )
    return float(out[0]) if size is None else out


def tilt_acceptance_rate(params: TweedieParams) -> float:
    """Expected acceptance rate exp(-lam*theta**gamma) of tilted-stable rejection."""
    return math.exp(-params.lam * params.theta**params.gamma)


def sample_tweedie(
    params: TweedieParams, rng: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Draw from the Tweedie law.

    Branches: ``gamma == 1`` is the point mass at ``lam`` (tilting a constant
    changes nothing); ``theta == 0`` reduces to the positive stable sampler
    and consumes the identical stream; ``0 < gamma < 1`` uses rejection of
    stable proposals with acceptance weight exp(-theta*Z); ``gamma < 0`` draws
    N ~ Poisson(lam*theta**gamma) and then a Gamma(-gamma*N, rate theta) total,
    using the additivity of gamma shapes in place of an explicit sum.
    """
    n = 1 if size is None else int(size)
    g, lam, th = params.gamma, params.lam, params.theta
    if g == 1.0:
        out = np.full(n, lam)
    elif g < 0.0:
        counts = rng.poisson(lam * th**g, n)
        out = np.zeros(n)
        pos = counts > 0
        if pos.any():
            out[pos] = rng.gamma(-g * counts[pos], 1.0 / th)
    elif th == 0.0:
        out = np.asarray(sample_positive_stable(PsParams(g, lam), rng, n))
    else:
        accept = tilt_acceptance_rate(params)
        if accept < MIN_TILT_ACCEPTANCE:
            raise TiltedRejectionInfeasibleError(
                f"acceptance rate {accept:.3g} below {MIN_TILT_ACCEPTANCE:g}; "
                "expected proposals per draw exceed 1e6"
            )
        stable = PsParams(g, lam)
        out = np.empty(n)
        filled = 0
        while filled < n:
            batch = int((n - filled) / accept * 1.2) + 16
            z = np.asarray(sample_positive_stable(stable, rng, batch))
            kept = z[rng.random(batch) < np.exp(-th * z)]
            take = min(kept.size, n - filled)
            out[filled : filled + take] = kept[:take]
            filled += take
    return float(out[0]) if size is None else out


def sample_alternative(
    spec: DistributionSpec, rng: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Draw from one of the alternative laws (li, pa, we, ln, lnsqrt).

    Zero inflation, when present, is applied after the base draw: a uniform
    per element decides whether the value is replaced by an exact zero.
    """
    n = 1 if size is None else int(size)
    fam, p = spec.family, spec.params
    if fam == "li":
        g, lam, delta = p
        v = rng.gamma(delta, lam, n)
        z = np.asarray(sample_positive_stable(PsParams(g, 1.0), rng, n))
        out = v ** (1.0 / g) * z
    elif fam == "pa":
        alpha, beta = p
        out = beta * rng.random(n) ** (-1.0 / alpha)
    elif fam == "we":
        k, lam = p
        out = lam * (-np.log(rng.random(n))) ** (1.0 / k)
    elif fam == "ln":
        out = np.exp(rng.normal(p[0], p[1], n))
    elif fam == "lnsqrt":
        out = np.exp(rng.normal(p[0], p[1], n) ** 2)
    else:
        raise UnsupportedOperationError(f"no alternative sampler for family {fam!r}")
    if spec.p_zero > 0.0:
        out = np.where(rng.random(n) < spec.p_zero, 0.0, out)
    return float(out[0]) if size is None else out


def sample_spec(
    spec: DistributionSpec, rng: RngStream, size: int | None = None
) -> float | np.ndarray:
    """Draw from any sampleable spec (dispatch by family)."""
    if spec.family == "ps":
        return sample_positive_stable(PsParams(*spec.params), rng, size)
    if spec.family in ("tw", "tw0"):
        return sample_tweedie(spec.tweedie_params(), rng, size)
    if spec.family == "jacobi":
        raise UnsupportedOperationError("no exact sampler for the cosh-Jacobi law")
    return sample_alternative(spec, rng, size)


# ---------------------------------------------------------------------------
# exact transforms


def laplace_exact(spec: DistributionSpec, s: float | np.ndarray) -> float | np.ndarray:
    """Exact Laplace transform E[exp(-s X)] for the closed-form families.

    Supports ps, tw, tw0, li and jacobi, plus zero-inflated wrappers of these;
    raises for the families whose transform has no closed form here (pa, we,
    ln, lnsqrt).
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("transform argument must be >= 0")
    fam, p = spec.family, spec.params
    if fam == "ps":
        g, lam = p
        base = np.exp(-lam * s_arr**g)
    elif fam in ("tw", "tw0"):
        tw = spec.tweedie_params()
        base = np.exp(
            math.copysign(1.0, tw.gamma)
            * tw.lam
            * (tw.theta**tw.gamma - (tw.theta + s_arr) ** tw.gamma)
        )
    elif fam == "li":
        g, lam, delta = p
        base = (1.0 + lam * s_arr**g) ** -delta
    elif fam == "jacobi":
        base = 1.0 / np.cosh(s_arr ** p[0])
    else:
        raise UnsupportedOperationError(f"no closed-form transform for family {fam!r}")
    out = spec.p_zero + (1.0 - spec.p_zero) * base
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out
