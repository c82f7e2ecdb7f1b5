import math
import sys
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
from laplacefit.distributions import tilt_acceptance_rate
from laplacefit.errors import (
    ConfigError,
    InvalidRegimeError,
    SpecFormatError,
    TiltedRejectionInfeasibleError,
    UnsupportedOperationError,
)

# uniform band on |L_n - L| at n = 1e5: 3*sqrt(log(2/delta)/(2n)), delta = 1e-3
N_BAND = 10**5
DKW_BAND = 3.0 * math.sqrt(math.log(2.0 / 1e-3) / (2.0 * N_BAND))


def empirical_transform(x, s):
    return np.exp(-np.multiply.outer(np.asarray(s), x)).mean(axis=-1)


# ---------------------------------------------------------------------------
# conversions


# published reference triples for the mean/zero-probability conversion, given
# to seven significant digits
CONVERSION_TRIPLES = [
    ((1.0, 1.0, 0.1), (-0.7677042, 3.565768, 1.767704)),
    ((0.75, 0.5, 0.1), (-1.8689607, 60.29735, 5.737921)),
    ((1.0, 1.25, 0.2), (-0.9883402, 2.546270, 1.590672)),
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


# ---------------------------------------------------------------------------
# Tweedie sampler


def test_tw_zero_fraction_matches_zero_probability():
    params = tw0_to_tw(Tw0Params(1.0, 1.0, 0.1))
    rng = derive_substream(21)
    x = sample_tweedie(params, rng, size=N_BAND)
    assert abs((x == 0.0).mean() - 0.1) < 0.006


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
    assert np.all(sample_tweedie(TweedieParams(1.0, 4.0, 2.0), rng, size=5) == 4.0)


def test_tw_rejection_infeasible_guard():
    params = TweedieParams(0.5, 200.0, 0.01)
    assert tilt_acceptance_rate(params) < 1e-6
    with pytest.raises(TiltedRejectionInfeasibleError):
        sample_tweedie(params, derive_substream(1), size=10)


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
    "s", [-0.5, math.nan, np.array([1.0, math.nan])], ids=["negative", "nan", "nan-in-array"]
)
def test_laplace_exact_refuses_argument(s):
    with pytest.raises(ConfigError, match="transform argument must be >= 0") as excinfo:
        laplace_exact(DistributionSpec("ps", (0.5, 2.0)), s)
    assert isinstance(excinfo.value, ValueError)


@pytest.mark.parametrize(
    "text",
    ["ps:0.5,15", "tw:0.5,2,0.5", "tw0:1,1,0.1", "li:0.5,2,0.5", "li0:0.5,2,0.5,0.2"],
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
    tally = montecarlo._CellTally()
    x = montecarlo._draw_chunk(config, 0, n, range(1), tally)
    assert x.shape == (rows, n) and not tally.failures
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


def test_no_sampler_for_jacobi():
    with pytest.raises(UnsupportedOperationError):
        sample_spec(DistributionSpec("jacobi", (0.5,)), derive_substream(1), size=3)


# ---------------------------------------------------------------------------
# pinned streams


#: the first four draws of sample_spec(spec, derive_substream(7, 1), size=64),
#: one spec per law and sampler branch; a change to any stream shows here
PINNED_STREAMS = [
    ("ps:0.5,15", (208.5611337681103, 86.74463370674245, 327.22922610897575, 39.65958091982558)),
    ("ps:1,3", (3.0, 3.0, 3.0, 3.0)),
    ("tw:0.5,2,0.5", (0.675092337881483, 0.6374537472077618, 2.7309795448468024, 0.5161245015365132)),
    ("tw:0.5,2,0", (3.7077534892108495, 1.5421268214531991, 5.817408464159569, 0.7050592163524547)),
    ("tw:-1,2,1", (0.3204274318546232, 0.5109480521964466, 0.0, 1.185584855773421)),
    ("tw0:1,1,0.1", (0.48338199534850296, 0.25752949738539527, 0.0, 0.7676099572669752)),
    ("li:0.5,2,0.5", (0.11233334057229682, 0.001595489307056536, 0.06958962521785682, 0.0002880535951646887)),
    ("li0:0.5,2,0.5,0.2", (0.0, 0.0, 0.06958962521785682, 0.0002880535951646887)),
    ("pa0:5,2,0.1", (2.315669068114327, 3.516135427474063, 2.7007865743127804, 2.9916244183626866)),
    ("we:5,1", (0.9397060919502859, 1.2305038450275945, 1.0847578295855167, 1.1502274138296327)),
    ("ln:0,1.5", (8.189601018166016, 3.5971090995267487, 97.94965238939828, 0.9180207638933676)),
    ("lnsqrt:0,1.5", (83.26613877588913, 5.1486476301770265, 1341715383.988963, 1.0073431117982141)),
]


@pytest.mark.parametrize("text,head", PINNED_STREAMS)
def test_streams_are_pinned(text, head):
    x = sample_spec(DistributionSpec.parse(text), derive_substream(7, 1), size=64)
    assert x.shape == (64,)
    assert tuple(x[:4].tolist()) == head
