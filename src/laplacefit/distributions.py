"""Generator laws: samplers, exact Laplace transforms and parameter conversions.

``LAWS`` holds one record per spec tag: the target families (positive
stable, Tweedie and its mean/zero reparametrization, cosh-Jacobi) and the
alternative laws used by the Monte Carlo harness (positive Linnik, Pareto,
Weibull, log-normal, exp-square log-normal), the last five also with a
zero-inflated wrapper.  Specs, draws and exact transforms read only it.
A generator's true parameters are its spec's ``native`` record, and the
Tweedie law's population censoring point and censored moments sit beside
its transform.

Linnik convention: ``LI(gamma, lam, delta)`` is the gamma scale mixture
``V**(1/gamma) * Z`` with ``V ~ Gamma(shape=delta, scale=lam)`` and
``Z`` positive stable with unit scale, so its Laplace transform is
``(1 + lam * s**gamma) ** -delta``.  Other conventions exist in the
literature and change nothing here except the meaning of ``delta``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import (
    ConfigError,
    InvalidRegimeError,
    RegimeError,
    SpecFormatError,
    TiltedRejectionInfeasibleError,
    UnsupportedOperationError,
    _at_least,
    _transform_argument,
)

#: deterministic pseudo-random stream; one per block of Monte Carlo replicates
RngStream = np.random.Generator

#: most stable proposals one tilted-rejection call (gamma != 1/2) may expect to draw, about 2 s
MAX_TILT_WORK = 2**24

#: most stable proposals tilted rejection draws in one pass; it loops for more
MAX_TILT_PROPOSALS = 2**16


def derive_substream(base_seed: int, *key: int) -> RngStream:
    """Derive an independent reproducible stream from a base seed and a key.

    Identical ``(base_seed, key)`` pairs produce bitwise-identical streams
    regardless of how many other streams exist or on which thread they are
    consumed, which is what makes parallel replication deterministic.  A
    seed or key that is negative or no integer raises :class:`ConfigError`.
    """
    for name, value in (("seed", base_seed), *(("key", k) for k in key)):
        _refused_index(name, value)
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=key))


def _refused_index(name: str, value: Any) -> None:
    # the ConfigError of a seed, key or size that is no integer or is negative
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    _at_least(name, value, 0)


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
        try:
            mass = self.lam * self.theta**self.gamma
        except OverflowError:
            mass = math.inf
        # numpy draws a Poisson count only for a mean up to about 9.2e18
        if not mass < (9.2e18 if self.gamma < 0.0 else math.inf):
            raise SpecFormatError(f"lam*theta**gamma = {mass:g} is out of range for {self!r}")

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
        if math.isinf(self.mu) or math.isinf(self.w):
            raise SpecFormatError(f"mean and w must be finite, got {self.mu} and {self.w}")


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
    try:
        mu = abs(g) * lam * th ** (g - 1.0)
    except OverflowError:
        raise InvalidRegimeError(
            f"index {g:.6g} and tilt {th:.6g} put theta**(gamma-1) outside the float range"
        ) from None
    return Tw0Params(mu, (1.0 - g) / th, math.exp(-lam * th**g))


# ---------------------------------------------------------------------------
# samplers


def _standard_one_sided_stable(gamma: float, rng: RngStream, size: int) -> np.ndarray:
    # Kanter's rejection-free representation, requires 0 < gamma < 1:
    # with U ~ Uniform(0, pi) and W ~ Exp(1),
    #   sin(gamma*U)/sin(U) * (sin((1-gamma)*U)/(W*sin(U)))**((1-gamma)/gamma)
    # has Laplace transform exp(-s**gamma).  It is taken here in tangent
    # half-angle form, sin(2x) = 2*tan(x)/(1 + tan(x)**2): with h = U/2 drawn
    # as Uniform(0, pi/2) (the same value halved, the same stream position),
    # t = tan(h) and t_a = tan(gamma*h), sin(gamma*U)/sin(U) is
    # t_a*(1 + t**2)/(t*(1 + t_a**2)), and likewise with t_b = tan((1-gamma)*h).
    # numpy vectorises float64 tan but not sin, so on a host with its AVX-512
    # tan loop this costs about half the sine form; elsewhere about the same.
    h = rng.uniform(0.0, 0.5 * np.pi, size)
    w = rng.standard_exponential(size)
    t = np.tan(h)
    q = np.multiply(t, t)
    q += 1.0
    q /= t  # (1 + t**2)/t
    a = np.tan(np.multiply(gamma, h, out=t), out=t)
    b = np.tan(np.multiply(1.0 - gamma, h, out=h), out=h)
    a /= a * a + 1.0
    a *= q  # sin(gamma*U)/sin(U)
    b /= b * b + 1.0
    b *= q
    b /= w  # sin((1-gamma)*U)/(W*sin(U))
    b **= (1.0 - gamma) / gamma
    b *= a
    return b


def sample_positive_stable(params: PsParams, rng: RngStream, size: int) -> np.ndarray:
    """Draw from the positive stable law with transform exp(-lam * s**gamma).

    For ``gamma == 1`` the law is the point mass at ``lam`` and no random
    numbers are consumed.
    """
    if params.gamma == 1.0:
        return np.full(size, params.lam)
    scale = np.float64(params.lam) ** (1.0 / params.gamma)  # inf past the float range
    return scale * _standard_one_sided_stable(params.gamma, rng, size)


def tilt_acceptance_rate(params: TweedieParams) -> float:
    """Expected acceptance rate exp(-lam*theta**gamma) of tilted-stable rejection.

    ``sample_tweedie`` rejects only for gamma != 1/2; gamma = 1/2 draws the
    inverse Gaussian directly, whatever this rate.
    """
    return math.exp(-params.lam * params.theta**params.gamma)


def sample_tweedie(params: TweedieParams, rng: RngStream, size: int) -> np.ndarray:
    """Draw from the Tweedie law.

    Branches, in order: ``gamma < 0`` draws N ~ Poisson(lam*theta**gamma)
    and then a Gamma(-gamma*N, rate theta) total, by the additivity of gamma
    shapes; ``theta == 0`` or ``gamma == 1`` is the positive stable sampler
    and its stream (at gamma = 1 the point mass at ``lam``, drawing nothing);
    ``gamma == 1/2`` is the inverse Gaussian with mean lam/(2*sqrt(theta))
    and shape lam**2/2, drawn exactly without rejection; any other
    ``0 < gamma < 1`` uses rejection of stable proposals with acceptance
    weight exp(-theta*Z), in passes of at most ``MAX_TILT_PROPOSALS``
    proposals, and refuses a call that expects more than ``MAX_TILT_WORK``
    proposals in all.
    """
    g, lam, th = params.gamma, params.lam, params.theta
    if g < 0.0:
        # exact: a shape-0 gamma draws nothing from the stream and is +0.0
        return rng.gamma(-g * rng.poisson(lam * th**g, size), 1.0 / th)
    if th == 0.0 or g == 1.0:
        return sample_positive_stable(PsParams(g, lam), rng, size)
    if g == 0.5:
        # Michael, Schucany & Haas (1976): X = mu*W with W ~ IG(1, phi),
        # phi = lam*sqrt(theta).  With Z ~ N(0, 1) the smaller root of
        # (W - 1)**2 / W = Z**2 / phi, 1 + (Z**2 - |Z|*sqrt(Z**2 + 4*phi))/(2*phi),
        # is taken in the cancellation-free form 4*phi/(|Z| + sqrt(Z**2 + 4*phi))**2
        # and kept with probability 1/(1 + W1), else replaced by 1/W1.
        phi = lam * math.sqrt(th)
        z = np.abs(rng.standard_normal(size))
        w = np.multiply(z, z)
        w += 4.0 * phi
        np.sqrt(w, out=w)
        w += z
        w *= w
        np.divide(4.0 * phi, w, out=w)
        flip = rng.random(size) * (1.0 + w) > 1.0
        np.divide(1.0, w, out=w, where=flip)
        w *= lam / (2.0 * math.sqrt(th))
        return w
    accept = tilt_acceptance_rate(params)
    if size > MAX_TILT_WORK * accept:  # a rate that underflows to 0 refuses too
        raise TiltedRejectionInfeasibleError(
            f"{size} values at acceptance rate {accept:.3g} expect more than {MAX_TILT_WORK} proposals"
        )
    stable = PsParams(g, lam)
    if np.float64(lam) ** (1.0 / g) == np.inf:  # no proposal is finite: refused later, not rejected forever
        return sample_positive_stable(stable, rng, size)
    out = np.empty(size)
    filled = 0
    while filled < size:
        batch = min(int((size - filled) / accept * 1.2) + 16, MAX_TILT_PROPOSALS)
        z = sample_positive_stable(stable, rng, batch)
        kept = z[rng.random(batch) < np.exp(-th * z)]
        take = min(kept.size, size - filled)
        out[filled : filled + take] = kept[:take]
        filled += take
    return out


def _sample_linnik(p: tuple[float, ...], rng: RngStream, size: int) -> np.ndarray:
    g, lam, delta = p
    v = rng.gamma(delta, lam, size)
    return v ** (1.0 / g) * sample_positive_stable(PsParams(g, 1.0), rng, size)


def _tweedie_transform(p: TweedieParams, s: np.ndarray) -> np.ndarray:
    sign = math.copysign(1.0, p.gamma)
    # at most 0 but for rounding, which times a large lam would overflow exp
    return np.exp(np.minimum(sign * p.lam * (p.theta**p.gamma - (p.theta + s) ** p.gamma), 0.0))


def tw_censoring_point(params: TweedieParams) -> float:
    """Population censoring point a_* with L_X(a_*) = 1/e.

    Exists iff lam*theta**gamma > -sgn(gamma), which is exactly P(X=0) < 1/e;
    then a_* = (1/(sgn(gamma)*lam) + theta**gamma)**(1/gamma) - theta, and
    a root past the float maximum is a RegimeError too.
    """
    g, lam, th = params.gamma, params.lam, params.theta
    sg = math.copysign(1.0, g)
    if not lam * th**g > -sg:
        raise RegimeError(
            f"P(X=0) = {params.zero_probability:.3f} >= 1/e; no censoring point "
            "with transform level 1/e exists"
        )
    try:
        return (1.0 / (sg * lam) + th**g) ** (1.0 / g) - th
    except OverflowError:
        raise RegimeError(f"the censoring point of {params!r} lies past the float maximum") from None


def tw_theoretical_censored_moments(
    params: TweedieParams, a: float
) -> tuple[float, float, float]:
    """Exact censored moments E[X**r * exp(-a*X)] for r = 1, 2, 3.

    Valid at any a > 0, not just at the censoring point:
    m1 = |gamma|*lam*L(a)*(theta+a)**(gamma-1) and the higher moments follow
    the recursion m2 = m1**2/L + m1*(1-gamma)/(theta+a),
    m3 = m1**3/L**2 + m1*(1-gamma)/(theta+a) * (3*m1/L + (2-gamma)/(theta+a)).
    An a that is not finite, or at which L**2 underflows to 0, is refused.
    """
    lap = float(_tweedie_transform(params, a)) if 0.0 < a < math.inf else 0.0
    if not lap**2 > 0.0:
        raise ConfigError(
            f"censoring point must be positive and finite, with L(a)**2 not underflowing to 0, got {a!r}"
        )
    g, lam, th = params.gamma, params.lam, params.theta
    m1 = abs(g) * lam * lap * (th + a) ** (g - 1.0)
    m2 = m1**2 / lap + m1 * (1.0 - g) / (th + a)
    m3 = m1**3 / lap**2 + m1 * (1.0 - g) / (th + a) * (3.0 * m1 / lap + (2.0 - g) / (th + a))
    return m1, m2, m3


# ---------------------------------------------------------------------------
# the registry of generator laws


@dataclass(frozen=True)
class Law:
    """One generator law, keyed by its spec tag in ``LAWS``.

    ``params(*values)`` validates a spec's ``arity`` values, raising
    :class:`SpecFormatError`, and returns what ``draw`` and ``transform``
    read.  ``draw(params, rng, size)`` is the exact sampler and
    ``transform(params, s)`` the closed-form Laplace transform; either is None
    where the law has none.  Only a ``zero_inflatable`` law takes ``p_zero > 0``.
    """

    arity: int
    zero_inflatable: bool
    params: Callable[..., Any]
    draw: Callable[[Any, RngStream, int], np.ndarray] | None
    transform: Callable[[Any, np.ndarray], np.ndarray] | None


def _rule(test: Callable[..., bool], rule: str) -> Callable[..., tuple[float, ...]]:
    # params of a law that the samplers read as the plain tuple
    def params(*values: float) -> tuple[float, ...]:
        if not test(*values):
            raise SpecFormatError(f"{rule}, got {values}")
        return values

    return params


def _tw0_native(mu: float, w: float, p: float) -> TweedieParams:
    try:
        return tw0_to_tw(Tw0Params(mu, w, p))
    except InvalidRegimeError as exc:
        raise SpecFormatError(
            f"mean/zero-probability triple ({mu:g}, {w:g}, {p:g}) has no native form: {exc}"
        ) from None


_log_normal = _rule(lambda mu, sigma: sigma > 0.0, "the log-normal sigma must be positive")

#: spec tag -> law; the zero-inflated text form appends ``0`` to the tag
LAWS: dict[str, Law] = {
    "ps": Law(
        2, False, PsParams, sample_positive_stable, lambda p, s: np.exp(-p.lam * s**p.gamma)
    ),
    "tw": Law(3, False, TweedieParams, sample_tweedie, _tweedie_transform),
    "tw0": Law(3, False, _tw0_native, sample_tweedie, _tweedie_transform),
    "jacobi": Law(
        1, False, _rule(lambda g: 0.0 < g <= 0.5, "the cosh-Jacobi index must be in (0, 0.5]"),
        None, lambda p, s: 1.0 / np.cosh(s ** p[0]),
    ),
    "li": Law(
        3, True,
        _rule(lambda g, lam, d: 0.0 < g <= 1.0 and lam > 0.0 and d > 0.0,
              "the Linnik law needs 0 < gamma <= 1, lam > 0 and delta > 0"),
        _sample_linnik, lambda p, s: (1.0 + p[1] * s ** p[0]) ** -p[2],
    ),
    "pa": Law(
        2, True, _rule(lambda a, b: a > 0.0 and b > 0.0, "the Pareto law needs alpha, beta > 0"),
        lambda p, rng, size: p[1] * rng.random(size) ** (-1.0 / p[0]), None,
    ),
    "we": Law(
        2, True, _rule(lambda k, lam: k > 0.0 and lam > 0.0, "the Weibull law needs k, lam > 0"),
        lambda p, rng, size: p[1] * (-np.log(rng.random(size))) ** (1.0 / p[0]), None,
    ),
    "ln": Law(
        2, True, _log_normal, lambda p, rng, size: np.exp(rng.normal(p[0], p[1], size)), None
    ),
    "lnsqrt": Law(
        2, True, _log_normal,
        lambda p, rng, size: np.exp(rng.normal(p[0], p[1], size) ** 2), None,
    ),
}


# ---------------------------------------------------------------------------
# tagged distribution specs


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged description of a generating law, one of ``LAWS``.

    ``p_zero > 0`` wraps a zero-inflatable base law in a mixture that emits
    an exact zero with probability ``p_zero``.  Canonical text form is
    ``family:p1,p2,...`` with a ``0`` suffix on the family for zero inflation,
    e.g. ``ps:0.5,15``, ``tw0:1,1,0.1``, ``pa0:5,2,0.1``.  Parameters must be
    finite and pass the law's own checks, whose record, built once, is ``native``.
    """

    family: str
    params: tuple[float, ...]
    p_zero: float = 0.0
    native: Any = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        law = LAWS.get(self.family)
        if law is None:
            raise SpecFormatError(f"unknown family {self.family!r}")
        if len(self.params) != law.arity:
            raise SpecFormatError(
                f"{self.family} takes {law.arity} parameters, got {len(self.params)}"
            )
        if not 0.0 <= self.p_zero < 1.0:
            raise SpecFormatError(f"zero-inflation must be in [0, 1), got {self.p_zero}")
        if self.p_zero > 0.0 and not law.zero_inflatable:
            raise SpecFormatError(f"{self.family} takes no zero inflation, got {self.p_zero}")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if not all(map(math.isfinite, self.params)):
            raise SpecFormatError(f"{self.family} parameters must be finite, got {self.params}")
        object.__setattr__(self, "native", law.params(*self.params))

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
        if fam in LAWS:
            return cls(fam, values)
        base = LAWS.get(fam[:-1]) if fam.endswith("0") else None
        if base is not None and base.zero_inflatable:
            if len(values) != base.arity + 1:
                raise SpecFormatError(
                    f"{fam} takes {base.arity + 1} parameters "
                    f"(last one is the zero probability), got {len(values)}"
                )
            return cls(fam[:-1], values[:-1], p_zero=values[-1])
        raise SpecFormatError(f"unknown family {head!r}")

    def text(self) -> str:
        fam = self.family + "0" if self.p_zero > 0.0 else self.family
        values = self.params + ((self.p_zero,) if self.p_zero > 0.0 else ())
        return fam + ":" + ",".join(format(v, "g") for v in values)


def sample_spec(spec: DistributionSpec, rng: RngStream, size: int) -> np.ndarray:
    """Draw ``size`` values from a spec's law.

    Zero inflation, when present, is applied after the base draw: a uniform
    per element decides whether the value is replaced by an exact zero.  A
    draw that overflows is inf, or NaN where inf meets 0, without a warning;
    ``Sample.from_values`` refuses it.  A ``size`` that is negative or no
    integer, or whose arrays cannot be allocated, raises :class:`ConfigError`.
    """
    law = LAWS[spec.family]
    if law.draw is None:
        raise UnsupportedOperationError(f"no exact sampler for {spec.text()!r}")
    _refused_index("size", size)
    try:
        if size > np.iinfo(np.intp).max // 8:
            raise MemoryError("more float64 bytes than numpy can index")
        with np.errstate(over="ignore", invalid="ignore"):
            out = law.draw(spec.native, rng, size)
            if spec.p_zero > 0.0:
                out = np.where(rng.random(size) < spec.p_zero, 0.0, out)
    except MemoryError as exc:
        raise ConfigError(f"size: {size} values cannot be allocated ({exc})") from None
    return out


def laplace_exact(spec: DistributionSpec, s: float | np.ndarray) -> float | np.ndarray:
    """Exact Laplace transform E[exp(-s X)] of a spec whose law has a ``transform``.

    Zero inflation gives p_zero + (1 - p_zero) times the base transform.
    """
    s_arr = _transform_argument(s)
    law = LAWS[spec.family]
    if law.transform is None:
        raise UnsupportedOperationError(f"no closed-form transform for {spec.text()!r}")
    with np.errstate(over="ignore"):  # a transform that overflows its exponent is 0
        out = spec.p_zero + (1.0 - spec.p_zero) * law.transform(spec.native, s_arr)
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out
