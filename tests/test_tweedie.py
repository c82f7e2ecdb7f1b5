import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from laplacefit import (
    DistributionSpec,
    Sample,
    Tw0Params,
    TweedieParams,
    derive_substream,
    fit_tweedie,
    gof_tweedie,
    laplace_exact,
    sample_spec,
    sample_tweedie,
    tw0_to_tw,
    tw_censoring_point,
    tw_theoretical_censored_moments,
)
from laplacefit.errors import (
    ConfigError,
    DegenerateSampleError,
    InsufficientSampleError,
    LaplaceFitError,
    NearSingularError,
    RegimeError,
    SpecFormatError,
)
from laplacefit.laplace_core import moments_rows, summarise
from laplacefit.tweedie import FAMILY, _complex_step, _h, _test_map, psi_phi, singular_rows

from numdiff_oracle import central_diff_jacobian, richardson_jacobian

E = math.e

# parameter grid spanning both branches with a valid censoring point
PARAM_GRID = [
    TweedieParams(0.3, 1.5, 0.8),
    TweedieParams(0.5, 2.0, 0.5),
    TweedieParams(0.8, 2.5, 0.6),
    TweedieParams(-0.5, 4.0, 0.9),
    TweedieParams(-1.0, 3.0, 1.2),
    TweedieParams(-2.0, 9.0, 1.3),
]


def tw_sample(params, n, seed):
    return Sample.from_values(sample_tweedie(params, derive_substream(seed), size=n))


# ---------------------------------------------------------------------------
# censoring point


def test_censoring_point_formula_value():
    a = tw_censoring_point(TweedieParams(0.5, 2.0, 0.5))
    assert a == pytest.approx((0.5 + 0.5**0.5) ** 2 - 0.5, rel=1e-14)
    assert a == pytest.approx(0.9571068, abs=1e-7)


def test_censoring_point_stable_reduction():
    assert tw_censoring_point(TweedieParams(0.5, 2.0, 0.0)) == pytest.approx(0.25, rel=1e-14)


def test_censoring_point_transform_level():
    for params in PARAM_GRID + [tw0_to_tw(Tw0Params(1.0, 1.0, 0.1))]:
        a = tw_censoring_point(params)
        spec = DistributionSpec("tw", (params.gamma, params.lam, params.theta))
        assert laplace_exact(spec, a) == pytest.approx(1.0 / E, abs=1e-10)


def test_censoring_point_regime_gate():
    # compound-Poisson point with P(X=0) = 0.5 >= 1/e
    params = tw0_to_tw(Tw0Params(0.5, 1.0, 0.5))
    assert params.zero_probability == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(RegimeError):
        tw_censoring_point(params)


def mp_censoring_point(params):
    """The root a_* = theta*((1 + u)**(1/gamma) - 1), u = 1/(sgn*lam*theta**gamma), and its condition number.

    Taken in mpmath with enough digits to hold 1 + u.  The condition number
    is |d log a_* / d log lam|: a rounding of lam*theta**gamma in double
    precision moves the root by that many ulps, which near the regime gate
    of the compound-Poisson branch is far more than 1e-12.
    """
    with mp.workdps(40):
        gamma, lam, theta = (mp.mpf(v) for v in (params.gamma, params.lam, params.theta))
        if theta == 0:
            return lam ** (-1 / gamma), 1 / abs(gamma)
        u = 1 / (mp.sign(gamma) * lam * theta**gamma)
    with mp.workdps(40 + max(0, int(-mp.log10(abs(u))))):
        u = 1 / (mp.sign(gamma) * lam * theta**gamma)
        root = theta * ((1 + u) ** (1 / gamma) - 1)
        return root, abs(u / ((1 + u) * gamma)) * (theta + root) / root


@pytest.mark.parametrize(
    "params",
    [TweedieParams(0.5, 1e120, 1.0), TweedieParams(-5.0, 1000.0, 0.2)],
    ids=["u-below-ulp", "ordinary-compound-poisson"],
)
def test_censoring_point_does_not_cancel(params):
    # (1/lam + theta**gamma)**(1/gamma) - theta gave 0.0 for the first,
    # where a_* is about 2e-120, and was 8.4e-10 off for the second
    root, _ = mp_censoring_point(params)
    assert tw_censoring_point(params) == pytest.approx(float(root), rel=1e-14, abs=0.0)


@st.composite
def tweedie_params(draw):
    # lam and theta spanning 1e-300..1e300 on both branches; on the
    # compound-Poisson one, lam*theta**gamma is drawn below numpy's Poisson
    # limit of 9.2e18, since a larger one is no law
    exponent = st.floats(-300.0, 300.0)
    if draw(st.booleans()):
        gamma = draw(st.floats(0.0, 1.0, exclude_min=True))
        theta = draw(st.just(0.0) | exponent.map(lambda e: 10.0**e))
        lam = 10.0 ** draw(exponent)
    else:
        gamma = -draw(st.floats(0.0, 10.0, exclude_min=True))
        theta = 10.0 ** draw(exponent)
        log_lam = draw(st.floats(-5.0, 18.9)) - gamma * math.log10(theta)
        assume(abs(log_lam) <= 300.0)
        lam = 10.0**log_lam
    try:
        return TweedieParams(gamma, lam, theta)
    except SpecFormatError:  # lam*theta**gamma past the float maximum
        assume(False)


@given(params=tweedie_params())
@example(params=TweedieParams(0.5, 1e120, 1.0))
@example(params=TweedieParams(-5.0, 1000.0, 0.2))
@example(params=TweedieParams(1.0, 1e200, 0.0))  # m1**2 of a_* = 1e-200 overflows
@settings(max_examples=300, deadline=None, derandomize=True)
def test_censoring_point_and_moments_are_exact_or_refused(params):
    try:
        a = tw_censoring_point(params)
    except RegimeError:
        return
    root, kappa = mp_censoring_point(params)
    assert 0.0 < a < math.inf
    assert a == pytest.approx(float(root), rel=1e-12 + 4 * 2.0**-52 * float(kappa), abs=0.0)
    try:
        moments = tw_theoretical_censored_moments(params, a)
    except LaplaceFitError:
        return
    assert all(map(math.isfinite, moments))


# ---------------------------------------------------------------------------
# theoretical censored moments


def _moments_by_differentiation(params, a):
    # independent oracle: m_r = (-1)**r * d^r/ds^r E[exp(-s X)] at s = a
    g, lam, th = params.gamma, params.lam, params.theta
    sgn = mp.sign(g)

    def transform(s):
        return mp.e ** (sgn * lam * (mp.mpf(th) ** g - (th + s) ** g))

    return [float((-1) ** r * mp.diff(transform, a, r)) for r in (1, 2, 3)]


@pytest.mark.parametrize("params", PARAM_GRID)
def test_theoretical_moments_against_derivative_oracle(params):
    a_star = tw_censoring_point(params)
    for a in (0.5 * a_star, a_star, 2.0 * a_star):
        closed = tw_theoretical_censored_moments(params, a)
        oracle = _moments_by_differentiation(params, a)
        for c, o in zip(closed, oracle):
            assert c == pytest.approx(o, rel=1e-9)


# inf is not finite, and at 1e300 the transform the recursion divides by underflows to 0
@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf, 1e300])
def test_theoretical_moments_refuse_censoring_point(a):
    with pytest.raises(ConfigError, match="censoring point must be positive") as excinfo:
        tw_theoretical_censored_moments(TweedieParams(0.5, 2.0, 0.5), a)
    assert isinstance(excinfo.value, ValueError)


def test_theoretical_moments_monte_carlo():
    params = TweedieParams(0.6, 2.5, 0.6)
    a_star = tw_censoring_point(params)
    s = tw_sample(params, 10**6, seed=11)
    m_tilde = moments_rows(s.values[None], np.array([a_star]))[0][0]
    m1, m2, m3 = tw_theoretical_censored_moments(params, a_star)
    assert m_tilde[1] / a_star == pytest.approx(m1, rel=0.01)
    assert m_tilde[2] / a_star**2 == pytest.approx(m2, rel=0.01)
    assert m_tilde[3] / a_star**3 == pytest.approx(m3, rel=0.01)


def test_degenerate_point_mass_moments():
    # gamma = 1 after reduction: point mass at lam, so m2 = m1 * lam at any a
    params = TweedieParams(1.0, 3.0, 0.0)
    a = tw_censoring_point(params)  # solves exp(-lam*a) = 1/e, a = 1/lam
    m1, m2, _ = tw_theoretical_censored_moments(params, a)
    assert a == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert m2 == pytest.approx(m1 * 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# estimator map


@pytest.mark.parametrize("params", PARAM_GRID)
def test_population_round_trip(params):
    a_star = tw_censoring_point(params)
    m1, m2, m3 = tw_theoretical_censored_moments(params, a_star)
    # the guard, on the normalized moments m_r * a**r, lets the point through
    errors = [None]
    singular_rows(np.array([[math.exp(-1.0), m1 * a_star, m2 * a_star**2, m3 * a_star**3, 0.0]]), errors)
    assert errors == [None]
    est = _h(np.array([m1, m2, m3, a_star]))
    assert est[0] == pytest.approx(params.gamma, rel=1e-9)
    assert est[1] == pytest.approx(params.lam, rel=1e-9)
    assert est[2] == pytest.approx(params.theta, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_psi_phi_consistency(params):
    a_star = tw_censoring_point(params)
    m1, m2, m3 = tw_theoretical_censored_moments(params, a_star)
    psi, phi_inv, phi_exp = psi_phi(m1, m2, m3)
    assert phi_inv * psi == pytest.approx(1.0, abs=1e-10)
    gamma_via_inv = 1.0 - (m2 / m1**2 - E) * phi_inv
    assert phi_exp == pytest.approx(gamma_via_inv, abs=1e-10)


@pytest.mark.parametrize("params", PARAM_GRID)
def test_gof_population_identity(params):
    # (1 - a m1 psi)**phi = -(psi - m2/m1**2)/e at the population point, which
    # makes the centered statistic vanish
    a_star = tw_censoring_point(params)
    m1, m2, m3 = tw_theoretical_censored_moments(params, a_star)
    psi, _, phi_exp = psi_phi(m1, m2, m3)
    lhs = (1.0 - a_star * m1 * psi) ** phi_exp
    rhs = -(psi - m2 / m1**2) / E
    assert lhs == pytest.approx(rhs, rel=1e-9)
    assert _test_map(np.array([m1, m2, m3, a_star])) == pytest.approx(0.0, abs=1e-9)


def test_jacobian_fd_vs_richardson_on_interior_points():
    # the shipped complex-step derivative against the Richardson oracle, at
    # interior points drawn at moment scales where the oracle's absolute step
    # floor is inactive (a_star <= 10 keeps every moment coordinate well above
    # 1e-3) and away from the index boundary gamma -> 1 where the psi
    # denominator degenerates like (1 - gamma); entries below 1e-4 of the
    # dominant one are analytically zero and carry only the oracle's float
    # jitter, so they are compared on that absolute scale
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 100:
        if rng.random() < 0.5:
            params = TweedieParams(rng.uniform(0.25, 0.8), rng.uniform(0.8, 4.0), rng.uniform(0.1, 2.0))
        else:
            g, th = -rng.uniform(0.3, 2.5), rng.uniform(0.5, 2.0)
            level = rng.uniform(1.5, 5.0)  # lam*theta**gamma, inside the regime
            params = TweedieParams(g, level / th**g, th)
        a_star = tw_censoring_point(params)
        if a_star > 10.0:
            continue
        if (1.0 - params.gamma) / (params.theta + a_star) > 4.0:
            # curvature scale of the map; benchmark models all sit below 0.4
            continue
        point = np.array([*tw_theoretical_censored_moments(params, a_star), a_star])
        for fn in (_h, _test_map):
            shipped = _complex_step(fn, point[:, None], fn(point[:, None]))[..., 0]
            fine = richardson_jacobian(fn, point)
            scale = np.maximum(np.abs(fine), 1e-4 * np.abs(fine).max())
            assert np.all(np.abs(shipped - fine) / scale < 1e-5), params
        checked += 1


#: laws whose unit-free points have a finite estimator map, nulls and alternatives
STEP_LAWS = (
    "tw0:1,1,0.1", "tw0:0.75,0.5,0.1", "tw0:1,1.25,0.2", "tw:0.5,2,0.5", "tw:0.6,2.5,0.6",
    "ln0:5,1,0.1", "ln0:1,0.75,0.1", "ps:0.5,15", "ln:0,1.5", "ln:0,1", "pa:5,2",
    "li:0.5,2,0.5", "pa:10,2",
)


def draw_batch(spec_text, n=300, reps=20):
    spec = DistributionSpec.parse(spec_text)
    return summarise(np.stack([sample_spec(spec, derive_substream(31, n, r), size=n) for r in range(reps)]))


def unit_free_points(batch):
    return np.array([*batch.m_tilde[:, 1:4].T, np.ones(batch.a.size)])


@pytest.mark.parametrize("spec_text", STEP_LAWS)
def test_complex_step_does_not_depend_on_its_step(spec_text):
    # Im f(v + i*t*e_j)/t has no subtraction, so any tiny t gives the same
    # derivative: t = 1e-150 and t = 1e-20 agree with the shipped step to
    # 1e-10 of each row's largest entry.  A row whose real value is NaN (a
    # negative power base) has no derivative to compare
    point = unit_free_points(draw_batch(spec_text))
    with np.errstate(invalid="ignore"):
        for fn in (_h, _test_map):
            value = fn(point)
            shipped = _complex_step(fn, point, value).reshape(-1, 4, point.shape[1])
            rows = np.isfinite(value).reshape(-1, point.shape[1]).all(axis=0)
            assert rows.sum() >= 5
            scale = np.abs(shipped[..., rows]).max(axis=(0, 1))
            for step in (1e-150, 1e-20):
                displaced = point[:, None] + 1j * step * np.eye(4)[..., None]
                other = (fn(displaced).imag / step).reshape(shipped.shape)
                gap = np.abs(other - shipped)[..., rows].max(axis=(0, 1))
                assert np.all(gap <= 1e-10 * scale), (step, (gap / scale).max())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_complex_step_keeps_nan_rows_nan():
    # we:5,1 puts theta~ + 1 below zero, so lambda = ...*(theta~ + 1)**(1 - gamma)
    # is NaN in real arithmetic; complex arithmetic takes a finite branch value
    # there, which the derivative must not report.  The NaN entries are those
    # of the central differences, and every fit says its covariance is not finite
    batch = draw_batch("we:5,1")
    point = unit_free_points(batch)
    value = _h(point)
    assert np.isnan(value[1]).all() and np.isfinite(value[[0, 2]]).all()
    assert np.isfinite(_complex_step(_h, point, np.zeros_like(value))).all()
    shipped = _complex_step(_h, point, value)
    assert np.array_equal(np.isnan(shipped), np.isnan(central_diff_jacobian(_h, point)))
    assert np.isnan(shipped[1]).all() and np.isfinite(shipped[[0, 2]]).all()
    fits = FAMILY.fit_batch(batch)
    assert all(error is None for error in fits.errors)
    assert np.isnan(fits.se).all()
    assert fits.flags["nonfinite_covariance"].all() and fits.flags["nonfinite_estimate"].all()


def test_near_singular_guard():
    # m2 = e*m1**2 zeroes the psi denominator
    m1 = 0.3
    errors = [None]
    singular_rows(np.array([[math.exp(-1.0), m1, E * m1**2, 0.5, 0.0]]), errors)
    assert isinstance(errors[0], NearSingularError)


# ---------------------------------------------------------------------------
# fitting on data


def test_fit_consistency_tilted_branch():
    fit = fit_tweedie(tw_sample(TweedieParams(0.5, 2.0, 0.5), 2 * 10**5, seed=14))
    gamma_hat, lambda_hat, theta_hat = fit.estimates
    assert gamma_hat == pytest.approx(0.5, abs=0.03)
    assert lambda_hat == pytest.approx(2.0, rel=0.06)
    assert theta_hat == pytest.approx(0.5, rel=0.12)


def test_fit_consistency_compound_poisson_branch():
    params = tw0_to_tw(Tw0Params(1.0, 1.0, 0.1))
    fit = fit_tweedie(tw_sample(params, 2 * 10**5, seed=15))
    gamma_hat, lambda_hat, theta_hat = fit.estimates
    assert gamma_hat == pytest.approx(params.gamma, rel=0.10)
    assert lambda_hat == pytest.approx(params.lam, rel=0.12)
    assert theta_hat == pytest.approx(params.theta, rel=0.10)


def test_fit_regime_and_guards():
    with pytest.raises(InsufficientSampleError):
        fit_tweedie(Sample.from_values([1.0] * 30))
    with pytest.raises(DegenerateSampleError):
        fit_tweedie(Sample.from_values([2.0] * 100))
    with pytest.raises(RegimeError):
        fit_tweedie(Sample.from_values([0.0] * 60 + [1.0] * 40))


def test_fit_covariance_psd_and_serialization():
    fit = fit_tweedie(tw_sample(TweedieParams(0.6, 2.5, 0.6), 3000, seed=16))
    assert np.allclose(fit.cov_hat, fit.cov_hat.T)
    assert np.linalg.eigvalsh(fit.cov_hat).min() >= -1e-10 * np.trace(fit.cov_hat)
    payload = fit.to_dict()
    for key in ("gamma_hat", "lambda_hat", "theta_hat", "se_theta", "ci_theta", "diagnostics"):
        assert key in payload


def test_gof_null_smoke():
    outcome = gof_tweedie(tw_sample(TweedieParams(0.5, 2.0, 0.5), 3000, seed=17))
    assert 0.0 <= outcome.p_value <= 1.0
    assert outcome.reject == (outcome.p_value < 0.05)


def test_gof_rejects_far_alternative():
    spec = DistributionSpec.parse("we0:5,1,0.1")
    rejections = 0
    for rep in range(20):
        s = Sample.from_values(sample_spec(spec, derive_substream(800 + rep), size=500))
        rejections += gof_tweedie(s).reject
    assert rejections >= 18


def test_gof_complex_power_error_path():
    # small exp-square-lognormal samples push theta_hat below zero, making the
    # power base negative with a fractional exponent
    import warnings

    from laplacefit.errors import ComplexPowerError

    s = Sample.from_values(
        sample_spec(DistributionSpec.parse("lnsqrt:0,1.5"), derive_substream(777, 0), size=60)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ComplexPowerError):
            gof_tweedie(s)
