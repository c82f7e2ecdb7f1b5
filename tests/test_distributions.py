import itertools
import math
import sys
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplacefit import (
    DistributionSpec,
    montecarlo,
    PsParams,
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
from laplacefit import distributions
from laplacefit.distributions import tilt_acceptance_rate
from laplacefit.errors import (
    ConfigError,
    InvalidRegimeError,
    LaplaceFitError,
    SpecFormatError,
    TiltedRejectionInfeasibleError,
    UnsupportedOperationError,
)
from laplacefit.tables import CONVERSION_TABLE

# uniform band on |L_n - L| at n = 1e5: 3*sqrt(log(2/delta)/(2n)), delta = 1e-3
N_BAND = 10**5
DKW_BAND = 3.0 * math.sqrt(math.log(2.0 / 1e-3) / (2.0 * N_BAND))


def empirical_transform(x, s):
    return np.exp(-np.multiply.outer(np.asarray(s), x)).mean(axis=-1)


# ---------------------------------------------------------------------------
# conversions


# the paper's mean/zero-probability conversions, given to seven significant digits
CONVERSION_TRIPLES = [
    (DistributionSpec.parse(row).params, expected) for row, expected in CONVERSION_TABLE.items()
]


def round_sig(x: float, digits: int = 7) -> float:
    if x == 0:
        return 0.0
    from math import floor, log10

    return round(x, digits - 1 - floor(log10(abs(x))))


@pytest.mark.parametrize("triple,expected", CONVERSION_TRIPLES)
def test_tw0_conversion_reference_triples(triple, expected):
    tw = tw0_to_tw(Tw0Params(*triple))
    got = (tw.gamma, tw.lam, tw.theta)
    for g, e in zip(got, expected):
        assert round_sig(g) == round_sig(e)


def test_tw0_conversion_matches_high_precision():
    # exact values computed with 30-digit arithmetic from the closed solve
    tw = tw0_to_tw(Tw0Params(1.0, 1.0, 0.1))
    assert tw.gamma == pytest.approx(-0.767704164110659873, rel=1e-14)
    assert tw.lam == pytest.approx(3.565767787518532699, rel=1e-14)
    assert tw.theta == pytest.approx(1.767704164110659873, rel=1e-14)


@given(
    mu=st.floats(0.1, 5.0),
    w=st.floats(0.1, 5.0),
    p=st.floats(0.01, 0.6),
)
@example(mu=0.5, w=0.265625, p=0.150390625)  # gamma ~ -155, theta**gamma underflows
@settings(max_examples=200, deadline=None)
def test_tw0_round_trip(mu, w, p):
    # the due outcome, worked out in log space where nothing under- or overflows:
    # a negative index with theta**gamma, theta**(gamma-1) and lam all normal floats
    denom = mu + w * math.log(p)
    representable = False
    if denom < 0.0:
        gamma = mu / denom
        log_theta = math.log((1.0 - gamma) / w)
        log_tiny, log_huge = math.log(sys.float_info.min), math.log(sys.float_info.max)
        log_powers = (gamma * log_theta, (gamma - 1.0) * log_theta)
        representable = all(log_tiny < v < log_huge for v in log_powers) and (
            math.log(-math.log(p)) - gamma * log_theta < log_huge
        )
    p3 = Tw0Params(mu, w, p)
    if not representable:
        with pytest.raises(InvalidRegimeError):
            tw0_to_tw(p3)
        return
    back = tw_to_tw0(tw0_to_tw(p3))
    assert back.mu == pytest.approx(mu, rel=1e-9)
    assert back.w == pytest.approx(w, rel=1e-9)
    assert back.p == pytest.approx(p, rel=1e-9)


def test_tw0_invalid_regime():
    with pytest.raises(InvalidRegimeError):
        tw0_to_tw(Tw0Params(1.0, 1.0, 0.5))  # mu + w*log(p) > 0


def test_tw_to_tw0_needs_negative_index():
    with pytest.raises(InvalidRegimeError):
        tw_to_tw0(TweedieParams(0.5, 2.0, 0.5))


# ---------------------------------------------------------------------------
# positive stable sampler


def test_ps_gamma_one_is_point_mass():
    rng = derive_substream(1)
    state = rng.bit_generator.state
    draws = sample_positive_stable(PsParams(1.0, 3.0), rng, size=5)
    assert np.all(draws == 3.0)
    assert rng.bit_generator.state == state  # no random numbers consumed


def test_ps_empirical_transform_in_band():
    rng = derive_substream(11)
    x = sample_positive_stable(PsParams(0.5, 2.0), rng, size=N_BAND)
    emp = float(np.exp(-x).mean())
    assert abs(emp - math.exp(-2.0)) < DKW_BAND


def test_ps_median_against_numerical_inversion_oracle():
    # frozen from scipy.stats.levy_stable.ppf(0.5, 0.3, 1.0,
    # scale=(2*cos(0.15*pi))**(1/0.3)), an independent numerical inversion of
    # the one-sided stable law
    median_oracle = 18.206900041567557
    rng = derive_substream(12)
    x = sample_positive_stable(PsParams(0.3, 2.0), rng, size=N_BAND)
    assert np.median(x) == pytest.approx(median_oracle, rel=0.02)


def test_ps_identical_keys_identical_draws():
    a = sample_positive_stable(PsParams(0.7, 1.0), derive_substream(5, 1, 2), size=100)
    b = sample_positive_stable(PsParams(0.7, 1.0), derive_substream(5, 1, 2), size=100)
    assert np.array_equal(a, b)


def kanter_sine_form(gamma, rng, size):
    # Kanter's representation as published, on the uniforms and exponentials
    # the sampler draws from the same stream
    u = rng.uniform(0.0, np.pi, size)
    w = rng.standard_exponential(size)
    su = np.sin(u)
    ratio = (1.0 - gamma) / gamma
    return np.sin(gamma * u) / su * (np.sin((1.0 - gamma) * u) / (w * su)) ** ratio


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_ps_tangent_form_matches_sine_form(gamma):
    x = sample_positive_stable(PsParams(gamma, 1.0), derive_substream(13, 1), size=N_BAND)
    oracle = kanter_sine_form(gamma, derive_substream(13, 1), N_BAND)
    assert np.isfinite(x).all() and np.isfinite(oracle).all()
    assert float(np.max(np.abs(x / oracle - 1.0))) <= 1e-13


def test_ps_tangent_form_overflows_where_sine_form_does():
    # the power (1 - gamma)/gamma is 49 and 99: a large draw leaves the float
    # range in both forms alike (at gamma = 0.01, 91 of these 1e5 draws do)
    for gamma in (0.02, 0.01):
        with np.errstate(over="ignore"):
            x = sample_positive_stable(PsParams(gamma, 1.0), derive_substream(13, 2), size=N_BAND)
            oracle = kanter_sine_form(gamma, derive_substream(13, 2), N_BAND)
        finite = np.isfinite(x)
        assert np.array_equal(finite, np.isfinite(oracle))
    assert not finite.all()


def test_ps_draw_leaves_the_stream_where_the_sine_form_does():
    # Linnik's gamma draw and tilted rejection's uniforms follow the stable
    # draw on the same stream, so it must consume one uniform and one
    # exponential per value, as Kanter's sine form does
    rng, ref = derive_substream(14), derive_substream(14)
    sample_positive_stable(PsParams(0.4, 1.0), rng, size=1000)
    ref.uniform(0.0, np.pi, 1000)
    ref.standard_exponential(1000)
    assert rng.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# Tweedie sampler


def test_tw_zero_fraction_matches_zero_probability():
    params = tw0_to_tw(Tw0Params(1.0, 1.0, 0.1))
    rng = derive_substream(21)
    x = sample_tweedie(params, rng, size=N_BAND)
    assert abs((x == 0.0).mean() - 0.1) < 0.006


def test_tw_zero_probability_is_zero_off_the_compound_poisson_branch():
    assert TweedieParams(0.5, 2.0, 0.5).zero_probability == 0.0
    assert not (sample_tweedie(TweedieParams(0.5, 2.0, 0.5), derive_substream(22), size=1000) == 0.0).any()


def test_tw_theta_zero_reduces_to_stable_stream():
    a = sample_tweedie(TweedieParams(0.5, 2.0, 0.0), derive_substream(3), size=50)
    b = sample_positive_stable(PsParams(0.5, 2.0), derive_substream(3), size=50)
    assert np.array_equal(a, b)


def test_tw_tilted_mean():
    rng = derive_substream(22)
    x = sample_tweedie(TweedieParams(0.5, 2.0, 0.5), rng, size=N_BAND)
    expected = 0.5 * 2.0 * 0.5**-0.5  # |gamma|*lam*theta**(gamma-1)
    assert x.mean() == pytest.approx(expected, rel=0.01)


def test_tw_gamma_one_degenerate():
    rng = derive_substream(23)
    state = rng.bit_generator.state
    assert np.all(sample_tweedie(TweedieParams(1.0, 4.0, 2.0), rng, size=5) == 4.0)
    assert rng.bit_generator.state == state  # no random numbers consumed


def test_spec_builds_its_native_parameters_once(monkeypatch):
    # draws and the exact transform read the record the spec built when it was made
    calls = []

    def counted(p3):
        calls.append(p3)
        return tw0_to_tw(p3)

    monkeypatch.setattr(distributions, "tw0_to_tw", counted)
    spec = DistributionSpec.parse("tw0:1,1,0.1")
    rng = derive_substream(5)
    for _ in range(3):
        sample_spec(spec, rng, size=4096)
    laplace_exact(spec, 1.0)
    assert len(calls) == 1


def test_tw_rejection_infeasible_guard():
    params = TweedieParams(0.6, 400.0, 0.01)
    assert tilt_acceptance_rate(params) < 1e-6
    with pytest.raises(TiltedRejectionInfeasibleError):
        sample_tweedie(params, derive_substream(1), size=10)


def test_tw_rejection_pass_is_bounded():
    # at acceptance 2e-6 two values take about 1e6 proposals; each pass holds
    # at most MAX_TILT_PROPOSALS of them, so the draw stays within a few MB
    params = TweedieParams(0.6, 13.1, 1.0)
    assert 1e-6 < tilt_acceptance_rate(params) < 3e-6
    tracemalloc.start()
    try:
        x = sample_tweedie(params, derive_substream(24), size=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (2,) and np.isfinite(x).all() and (x > 0.0).all()
    assert peak < 8e6


@pytest.mark.parametrize(
    "lam,theta",
    [(2.0, 0.5), (2.0, 1e-30), (200.0, 0.01), (1e-8, 1e8), (1e-8, 1e-300), (1e3, 1e-12),
     (0.05, 3.0), (50.0, 1e4),
     # acceptance exp(-200*sqrt(5)) ~ 1e-194: infeasible for tilted rejection
     (200.0, 5.0)],
)
def test_tw_half_inverse_gaussian_precision(lam, theta):
    # at theta = 1e-30 the variance ratio mu/xi is 5e14 and the inverse
    # Gaussian is almost the Levy law: the small root must not cancel to 0
    spec = DistributionSpec("tw", (0.5, lam, theta))
    x = sample_spec(spec, derive_substream(25, zlib.crc32(spec.text().encode())), size=N_BAND)
    assert np.isfinite(x).all() and (x > 0.0).all()
    # sup |L_n - L| on a grid scaled to the law's median, where the transform
    # runs from near 1 to near 0 whatever the law's scale
    grid = np.geomspace(0.01, 100.0, 41) / np.median(x)
    assert np.abs(empirical_transform(x, grid) - laplace_exact(spec, grid)).max() < DKW_BAND
    phi = lam * math.sqrt(theta)  # mean**2 / variance
    if phi >= 1.0:
        # the mean's standard error is mean/sqrt(phi*n); 5 of them
        mean = lam / (2.0 * math.sqrt(theta))
        assert x.mean() == pytest.approx(mean, rel=5.0 / math.sqrt(phi * N_BAND))


# ---------------------------------------------------------------------------
# alternatives


def test_pareto_support():
    rng = derive_substream(31)
    x = sample_spec(DistributionSpec("pa", (5.0, 2.0)), rng, size=10000)
    assert x.min() >= 2.0


def test_weibull_unit_exponential_mean():
    rng = derive_substream(32)
    x = sample_spec(DistributionSpec("we", (1.0, 1.0)), rng, size=N_BAND)
    assert x.mean() == pytest.approx(1.0, rel=0.01)


def test_linnik_transform_in_band():
    rng = derive_substream(33)
    spec = DistributionSpec("li", (0.5, 2.0, 0.5))
    x = sample_spec(spec, rng, size=N_BAND)
    exact = (1.0 + 2.0) ** -0.5
    assert abs(float(np.exp(-x).mean()) - exact) < DKW_BAND


def test_zero_inflated_frequency():
    rng = derive_substream(34)
    spec = DistributionSpec("we", (1.0, 1.0), p_zero=0.3)
    n = 50000
    x = sample_spec(spec, rng, size=n)
    band = 4.0 * math.sqrt(0.3 * 0.7 / n)
    assert abs((x == 0.0).mean() - 0.3) < band


def test_lnsqrt_is_exp_of_squared_normal():
    rng = derive_substream(35)
    x = sample_spec(DistributionSpec("lnsqrt", (0.0, 1.0)), rng, size=20000)
    assert x.min() >= 1.0  # exp(X**2) >= 1


# ---------------------------------------------------------------------------
# exact transforms


def test_laplace_exact_ps():
    spec = DistributionSpec("ps", (0.5, 2.0))
    assert laplace_exact(spec, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert laplace_exact(spec, 0.0) == 1.0
    # a scalar or 0-d argument gives a float, a 1-d one an array
    assert type(laplace_exact(spec, 1.0)) is float and type(laplace_exact(spec, np.array(1.0))) is float
    assert laplace_exact(spec, np.array([1.0])).shape == (1,)


def test_laplace_exact_tw_at_censoring_point():
    # a* = (1/lam + theta**gamma)**(1/gamma) - theta for the tilted branch
    a_star = (1.0 / 2.0 + 0.5**0.5) ** 2.0 - 0.5
    assert a_star == pytest.approx(0.9571068, abs=1e-7)
    spec = DistributionSpec("tw", (0.5, 2.0, 0.5))
    assert laplace_exact(spec, a_star) == pytest.approx(1.0 / math.e, abs=1e-6)


def test_laplace_exact_jacobi():
    c = math.log(math.e + math.sqrt(math.e**2 - 1.0))
    assert c == pytest.approx(1.657454, abs=1e-6)
    spec = DistributionSpec("jacobi", (0.5,))
    assert laplace_exact(spec, c**2) == pytest.approx(1.0 / math.e, abs=1e-6)


def test_laplace_exact_unsupported():
    with pytest.raises(UnsupportedOperationError):
        laplace_exact(DistributionSpec("pa", (5.0, 2.0)), 1.0)


@pytest.mark.parametrize(
    "s",
    [-0.5, math.nan, np.array([1.0, math.nan]), "abc", [1, [2]], 1j, object(),
     np.array([1j]), np.array([2 + 3j]), np.array([1 + 0j])],
    ids=["negative", "nan", "nan-in-array", "string", "ragged", "complex", "object",
         "complex-array", "complex-array-real-part", "complex-array-zero-imaginary"],
)
def test_laplace_exact_refuses_argument(s):
    # refused before any conversion: a complex array warns nothing and is not read at its real part
    with warnings.catch_warnings(), pytest.raises(ConfigError, match="transform argument must be >= 0") as excinfo:
        warnings.simplefilter("error")
        laplace_exact(DistributionSpec("ps", (0.5, 2.0)), s)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize(
    "text",
    # the stable rows of tables 1 and 3 and of the benchmark's small-n study
    ["ps:0.5,15", "ps:0.3,2", "ps:0.4,5", "ps:0.6,20", "tw:0.5,2,0.5", "tw:0.6,2.5,0.6",
     "tw0:1,1,0.1", "li:0.5,2,0.5", "li0:0.5,2,0.5,0.2"],
)
def test_sampler_transform_band_on_grid(text):
    spec = DistributionSpec.parse(text)
    rng = derive_substream(40, zlib.crc32(text.encode()) % 1000)
    x = sample_spec(spec, rng, size=N_BAND)
    grid = np.arange(0.1, 5.01, 0.1)
    gap = np.abs(empirical_transform(x, grid) - laplace_exact(spec, grid))
    assert float(gap.max()) < DKW_BAND


@pytest.mark.parametrize("text", ["tw:0.5,2,0.5", "tw0:1,1,0.1", "li0:0.5,2,0.5,0.2"])
def test_rows_of_a_harness_block_in_band(text):
    # a Monte Carlo block is one flat draw cut into rows; each row is a sample
    # of the law: tilted rejection and zero inflation fill the rows in order
    n = 512
    rows = montecarlo.BLOCK_VALUES // n
    config = montecarlo.ExperimentConfig(
        DistributionSpec.parse(text), "tweedie", (n,), replications=rows, base_seed=42,
        metrics=("power",),
    )
    failures = {}
    x = montecarlo._draw_chunk(config, 0, n, range(1), failures)
    assert x.shape == (rows, n) and not failures
    grid = np.arange(0.1, 5.01, 0.1)
    # Hoeffding on each of the rows x grid points, 1e-3 in all
    band = math.sqrt(math.log(2.0 * rows * grid.size / 1e-3) / (2.0 * n))
    exact = laplace_exact(config.generator, grid)
    for row in x:
        assert float(np.abs(empirical_transform(row, grid) - exact).max()) < band


# ---------------------------------------------------------------------------
# spec text forms


@pytest.mark.parametrize(
    "text",
    ["ps:0.5,15", "tw:0.5,2,0.5", "tw0:1,1,0.1", "pa0:5,2,0.1", "lnsqrt:0,1.5", "jacobi:0.4"],
)
def test_spec_text_round_trip(text):
    spec = DistributionSpec.parse(text)
    assert DistributionSpec.parse(spec.text()) == spec


def test_spec_parse_zero_inflated():
    spec = DistributionSpec.parse("pa0:5,2,0.1")
    assert spec.family == "pa" and spec.p_zero == 0.1 and spec.params == (5.0, 2.0)


@pytest.mark.parametrize(
    "bad",
    ["", "ps", "ps:", "ps:1", "ps:0.5,15,3", "nope:1,2", "ps:0.5,abc", "tw00:1,1,0.1,0.1",
     "ps:1.5,2", "tw:0.5,-1,0", "tw0:1,1,1.5", "jacobi:0.9",
     # theta**gamma, or lam*theta**gamma, overflows
     "tw:-2000,1,0.5", "tw:-2,1e308,0.5",
     # numpy's Poisson sampler refuses a mean above about 9.2e18
     "tw:-5,1e20,1",
     # a parameter that is not finite
     "ln:nan,1", "we:1,inf", "ps:0.5,inf", "li:0.5,inf,1",
     # mu + w*log(p) >= 0: the triple has no native form
     "tw0:1,1,0.5"],
)
def test_spec_parse_errors(bad):
    with pytest.raises(SpecFormatError):
        DistributionSpec.parse(bad)


@pytest.mark.parametrize(
    "family,params",
    [("ps", (0.5, 15.0)), ("tw", (0.5, 2.0, 0.5)), ("tw0", (1.0, 1.0, 0.1)), ("jacobi", (0.5,))],
)
def test_zero_inflation_refused_where_text_form_lacks_it(family, params):
    DistributionSpec(family, params)
    with pytest.raises(SpecFormatError, match="takes no zero inflation"):
        DistributionSpec(family, params, p_zero=0.2)


#: parameters from 1e-300 to 1e300 for the extreme-spec grid
EXTREMES = (1e-300, 1e-100, 1e-5, 0.3, 0.5, 1.0, 2.0, 1e5, 1e100, 1e300)


def extreme_specs():
    # every spec of the grid that parse accepts; a Tweedie index and a
    # log-normal mean also take the negative sign
    for family, arity in [("ps", 2), ("tw", 3), ("tw0", 3), ("li", 3), ("pa", 2), ("we", 2),
                          ("ln", 2), ("lnsqrt", 2)]:
        signs = (1.0, -1.0) if family in ("tw", "ln", "lnsqrt") else (1.0,)
        for sign, first, *rest in itertools.product(signs, *[EXTREMES] * arity):
            text = f"{family}:" + ",".join(map(repr, (sign * first, *rest)))
            try:
                yield DistributionSpec.parse(text)
            except SpecFormatError:
                pass


def test_tilted_rejection_rejects_proposals_past_the_float_range():
    # at gamma = 0.01 a stable proposal overflows about 9 times in 1e4 at a
    # finite scale; its acceptance weight exp(-theta*inf) is 0, so none is kept
    x = sample_spec(DistributionSpec.parse("tw:0.01,1,1"), derive_substream(15), 5000)
    assert np.isfinite(x).all()


def test_extreme_specs_draw_or_raise_a_coded_error():
    # a spec that parses draws values (inf or NaN past the float range, which
    # Sample.from_values refuses) or raises a LaplaceFitError; nothing else,
    # and no warning
    s = np.array([0.0, 1e-300, 0.5, 1.0, 1e300])
    specs = list(extreme_specs())
    assert len(specs) > 2000
    for spec in specs:
        for size in (1, 50):
            try:
                x = sample_spec(spec, derive_substream(3, size), size)
            except LaplaceFitError:
                continue
            assert x.shape == (size,) and not (x < 0.0).any(), spec
        try:
            value = laplace_exact(spec, s)
        except LaplaceFitError:
            continue
        assert ((0.0 <= value) & (value <= 1.0)).all(), spec


def test_no_sampler_for_jacobi():
    with pytest.raises(UnsupportedOperationError):
        sample_spec(DistributionSpec("jacobi", (0.5,)), derive_substream(1), size=3)


# ---------------------------------------------------------------------------
# pinned streams


#: the first four draws of sample_spec(spec, derive_substream(7, 1), size=64),
#: one spec per law and sampler branch; a change to any stream shows here
PINNED_STREAMS = [
    ("ps:0.5,15", (208.5611337681103, 86.74463370674246, 327.2292261089757, 39.65958091982556)),
    ("ps:1,3", (3.0, 3.0, 3.0, 3.0)),
    ("tw:0.5,2,0.5", (0.46166875639203087, 0.7001264154435415, 0.1666280166016961, 1.3480071478169957)),
    ("tw:0.5,2,0", (3.7077534892108495, 1.5421268214531993, 5.817408464159568, 0.7050592163524544)),
    ("tw:-1,2,1", (0.3204274318546232, 0.5109480521964466, 0.0, 1.185584855773421)),
    ("tw0:1,1,0.1", (0.48338199534850296, 0.25752949738539527, 0.0, 0.7676099572669752)),
    ("li:0.5,2,0.5", (0.1123333405722968, 0.001595489307056536, 0.06958962521785679, 0.0002880535951646886)),
    ("li0:0.5,2,0.5,0.2", (0.0, 0.0, 0.06958962521785679, 0.0002880535951646886)),
    ("pa0:5,2,0.1", (2.315669068114327, 3.516135427474063, 2.7007865743127804, 2.9916244183626866)),
    ("we:5,1", (0.9397060919502859, 1.2305038450275945, 1.0847578295855167, 1.1502274138296327)),
    ("ln:0,1.5", (8.189601018166016, 3.5971090995267487, 97.94965238939828, 0.9180207638933676)),
    ("lnsqrt:0,1.5", (83.26613877588913, 5.1486476301770265, 1341715383.988963, 1.0073431117982141)),
    ("tw:0.6,2.5,0.6", (0.5979556665021122, 2.1639312416872247, 1.8668686517194084, 1.2675408327894244)),
]


@pytest.mark.parametrize("text,head", PINNED_STREAMS)
def test_streams_are_pinned(text, head):
    x = sample_spec(DistributionSpec.parse(text), derive_substream(7, 1), size=64)
    assert x.shape == (64,)
    assert tuple(x[:4].tolist()) == head
