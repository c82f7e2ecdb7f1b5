import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplacefit import (
    DistributionSpec,
    Sample,
    censored_moments,
    censored_moments_at,
    derive_substream,
    empirical_laplace,
    influence_map,
    laplace_exact,
    load_sample,
    sample_spec,
    solve_censoring_point,
)
from laplacefit.errors import (
    AllZeroSampleError,
    DegenerateMomentsError,
    DegenerateSampleError,
    SampleValidationError,
)
from laplacefit.laplace_core import SOLVER_RTOL, parse_sample_csv, parse_sample_lines

E = math.e


# ---------------------------------------------------------------------------
# Sample construction and ingestion


def test_sample_summaries():
    s = Sample.from_values([0.0, 1.5, 0.0, 2.0])
    assert s.n == 4 and s.zero_count == 2 and s.p_hat == 0.5
    assert s.positive_median() == 1.75


@pytest.mark.parametrize(
    "values,fragment",
    [([1.0, -2.0], "row 2"), ([float("nan")], "row 1"), ([1.0, 2.0, float("inf")], "row 3")],
)
def test_sample_rejects_bad_values(values, fragment):
    with pytest.raises(SampleValidationError, match=fragment):
        Sample.from_values(values)


def test_parse_lines_row_indexed_errors():
    with pytest.raises(SampleValidationError, match="row 3"):
        parse_sample_lines(["1.0", "2.0", "oops"])
    with pytest.raises(SampleValidationError, match="row 2"):
        parse_sample_lines(["1.0", "-3"])
    # CSV rows count the header as row 1
    with pytest.raises(SampleValidationError, match="row 4"):
        parse_sample_csv(io.StringIO("a\n1\n2\nxx"), "a")


def test_load_csv_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,value\n1,0.5\n2,1.25\n")
    s = load_sample(path, column="value")
    assert np.array_equal(s.values, [0.5, 1.25])
    with pytest.raises(SampleValidationError, match="missing"):
        load_sample(io.StringIO("id,value\n1,0.5"), column="missing")


def test_load_plain_text(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1.0\n\n2.5\n")
    assert load_sample(path).n == 2


# ---------------------------------------------------------------------------
# empirical transform


def test_empirical_laplace_basics():
    s = Sample.from_values([1.0, 1.0, 1.0, 1.0])
    assert empirical_laplace(s, 0.0) == 1.0
    assert empirical_laplace(s, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_empirical_laplace_hand_value():
    s = Sample.from_values([0.0, 2.0])
    assert empirical_laplace(s, math.log(2.0)) == pytest.approx(0.625, rel=1e-15)


@given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=40))
@settings(max_examples=100, deadline=None)
def test_empirical_laplace_strictly_decreasing_on_moderate_scale(values):
    s = Sample.from_values(values)
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    out = np.asarray(empirical_laplace(s, grid))
    assert np.all(np.diff(out) < 0)


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40))
@settings(max_examples=100, deadline=None)
def test_empirical_laplace_never_increases(values):
    # strict decrease can fall below float resolution for extreme scales, but
    # the transform must never increase
    s = Sample.from_values(values)
    out = np.asarray(empirical_laplace(s, np.array([0.0, 0.5, 1.0, 2.0, 4.0])))
    assert np.all(np.diff(out) <= 0)


# ---------------------------------------------------------------------------
# censoring point


def test_solver_constant_sample():
    s = Sample.from_values([3.0] * 20)
    point = solve_censoring_point(s)
    assert point.c_target == 1.0 / E
    assert point.a == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_solver_zero_adjusted_target():
    # nine zeros and one positive value: c = (1 + (e-1)*0.9)/e and the
    # two-atom transform solves in closed form, 0.1*exp(-A) = c - 0.9 = 0.1/e,
    # so A = 1 exactly
    s = Sample.from_values([0.0] * 9 + [1.0])
    point = solve_censoring_point(s)
    assert point.c_target == pytest.approx((1.0 + (E - 1.0) * 0.9) / E, rel=1e-15)
    assert point.a == pytest.approx(1.0, rel=1e-9)


def test_solver_all_zero():
    with pytest.raises(AllZeroSampleError):
        solve_censoring_point(Sample.from_values([0.0, 0.0]))


@pytest.mark.parametrize(
    "values",
    [
        [1e-310, 2e-310, 3e-310],  # 1/median overflows to inf
    ],
)
def test_solver_bracket_outside_float_range(values):
    with pytest.raises(DegenerateSampleError):
        solve_censoring_point(Sample.from_values(values))


def test_solver_median_near_float_maximum():
    # the two middle positive values sum past the float maximum; their
    # midpoint lo/2 + hi/2 does not, so the bracket and the root stay finite
    s = Sample.from_values([9e307, 1.7e308, 1e-100, 1.1e308])
    assert s.positive_median() == 9e307 / 2 + 1.1e308 / 2
    point = solve_censoring_point(s)
    assert 0.0 < point.a < 1e-307
    assert abs(point.residual) <= SOLVER_RTOL * point.c_target


@given(st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_positive_median_matches_numpy(values):
    assert Sample.from_values(values).positive_median() == np.median(values)


def test_solver_residual_tolerance_across_laws():
    specs = ["ps:0.5,15", "ps:0.3,2", "tw:0.5,2,0.5", "tw0:1,1,0.1", "we:1,1"]
    for i, text in enumerate(specs):
        spec = DistributionSpec.parse(text)
        for rep in range(40):
            rng = derive_substream(100, i, rep)
            s = Sample.from_values(sample_spec(spec, rng, size=200))
            point = solve_censoring_point(s)
            assert abs(point.residual) <= SOLVER_RTOL * point.c_target


def test_censoring_point_consistency_ps():
    rng = derive_substream(101)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.5,15"), rng, size=10**5))
    a_star = 15.0**-2.0
    assert solve_censoring_point(s).a == pytest.approx(a_star, rel=0.03)


def test_censoring_point_monotone_consistency():
    # nested samples: the larger sample's censoring point should sit closer to
    # the population point in the median over replicates
    spec = DistributionSpec.parse("ps:0.5,2")
    a_star = 2.0 ** (-1.0 / 0.5)
    small, large = [], []
    for rep in range(200):
        rng = derive_substream(102, rep)
        x = sample_spec(spec, rng, size=1200)
        small.append(abs(solve_censoring_point(Sample.from_values(x[:300])).a - a_star))
        large.append(abs(solve_censoring_point(Sample.from_values(x)).a - a_star))
    assert np.median(large) < np.median(small)


# ---------------------------------------------------------------------------
# censored moments


def raw_moment(ms, r):
    """The raw censored moment mean(X**r * exp(-A*X)) = m_tilde[r] / A**r."""
    return ms.m_tilde[r] / ms.a**r


def test_moments_constant_sample():
    k = 2.5
    s = Sample.from_values([k] * 50)
    ms = censored_moments(s)
    for r in range(5):
        assert raw_moment(ms, r) == pytest.approx(k**r * math.exp(-1.0), rel=1e-11)


def test_sample_caches_only_scalars():
    # the cached moments hold A, the target level, five moments and a 4x4
    # covariance; an n-length array kept on the sample would pin 8n bytes
    s = Sample.from_values(derive_substream(109).gamma(2.0, 1.0, 1000))
    assert censored_moments(s) is censored_moments(s) is s.moments
    assert not s.constant
    ms = s.moments
    assert ms.m_tilde.shape == (5,) and ms.cov.shape == (4, 4)
    assert sorted(vars(s)) == ["constant", "moments", "n", "values", "zero_count"]
    assert all(np.ndim(v) == 0 for v in (ms.a, ms.c_target))


def test_moment_zero_equals_target():
    rng = derive_substream(103)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("we:1,1"), rng, size=5000))
    ms = censored_moments(s)
    assert abs(raw_moment(ms, 0) - ms.c_target) <= SOLVER_RTOL * ms.c_target


def test_moments_ps_first_moment():
    rng = derive_substream(104)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.5,15"), rng, size=10**5))
    # population m_1 = gamma/(e*a_*) with a_* = 15**-2
    expected = 0.5 * 225.0 / E
    assert raw_moment(censored_moments(s), 1) == pytest.approx(expected, rel=0.03)


def test_moments_tw_first_moment():
    rng = derive_substream(105)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw:0.5,2,0.5"), rng, size=10**5))
    a_star = (0.5 + 0.5**0.5) ** 2 - 0.5
    expected = 0.5 * 2.0 * math.exp(-1.0) * (0.5 + a_star) ** -0.5
    assert raw_moment(censored_moments(s), 1) == pytest.approx(expected, rel=0.03)


def test_moments_survive_huge_values():
    # x**4 overflows for the largest entry but exp(-a*x) underflows to an
    # exact zero there, so the product must come back as zero, not NaN
    s = Sample.from_values([0.5, 1.0, 2.0, 1e120])
    ms = censored_moments(s)
    assert np.isfinite(ms.m_tilde).all() and np.isfinite(ms.cov).all()


def test_raw_moments_from_normalized():
    # m_tilde[r] / a**r undoes the normalization y = a*x: mean(x**r * exp(-a*x))
    x = derive_substream(110).gamma(2.0, 1.0, 500)
    ms = censored_moments_at(Sample.from_values(x), 0.7)
    for r in range(5):
        assert raw_moment(ms, r) == pytest.approx(np.mean(x**r * np.exp(-0.7 * x)), rel=1e-13)
    assert ms.m_tilde[0] == raw_moment(ms, 0) == np.exp(-(0.7 * x)).mean()


# ---------------------------------------------------------------------------
# influence rows and covariance


def power_products(x, a):
    """The per-observation power products (y**r * exp(-y)), r <= 3, y = a*x, shape (4, n)."""
    y = a * np.asarray(x, dtype=float)
    return np.stack([y**r * np.exp(-y) for r in range(4)])


def raw_scales(a, k):
    """The factors (a**-1, ..., a**-k, a) from the normalized rows V~_r, W~ to the raw V_r, W."""
    return np.array([*(a**-r for r in range(1, k + 1)), a])


def test_influence_rows_hand_computed():
    s = Sample.from_values([0.0, 2.0])
    ms = censored_moments_at(s, math.log(2.0))
    assert raw_moment(ms, 1) == pytest.approx(0.25, rel=1e-15)
    assert raw_moment(ms, 2) == pytest.approx(0.5, rel=1e-15)
    lmap, scales = influence_map(ms, k=1), raw_scales(ms.a, 1)
    rows = scales[:, None] * (lmap @ power_products(s.values, ms.a))
    v1 = rows[0]
    assert v1[0] == pytest.approx(-2.0, rel=1e-14)
    assert v1[1] == pytest.approx(0.0, abs=1e-14)


def test_influence_point_row_identity():
    rng = derive_substream(106)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.4,5"), rng, size=2000))
    ms = censored_moments(s)
    lmap, scales = influence_map(ms, k=3), raw_scales(ms.a, 3)
    w_mean = scales[3] * (lmap[3] @ ms.m_tilde[:4])
    assert w_mean == pytest.approx(raw_moment(ms, 0) / raw_moment(ms, 1), rel=1e-12)


def test_influence_rows_degenerate_moments():
    s = Sample.from_values([0.0, 2.0])
    ms = censored_moments_at(s, 1.0)
    forced = type(ms)(a=ms.a, c_target=ms.c_target, m_tilde=np.zeros(5), cov=ms.cov)
    with pytest.raises(DegenerateMomentsError):
        influence_map(forced, k=1)


def test_covariance_constant_rows():
    assert np.allclose(censored_moments(Sample.from_values([2.5] * 10)).cov, 0.0)


def test_covariance_two_point_hand_value():
    # two observations: cov = d d^T / 2, with d the difference of their power
    # products (1, 0, 0, 0) at y = 0 and (1, y, y**2, y**3)/4 at y = 2*log(2)
    ms = censored_moments_at(Sample.from_values([0.0, 2.0]), math.log(2.0))
    log2 = math.log(2.0)
    d = np.array([0.75, -log2 / 2.0, -(log2**2), -2.0 * log2**3])
    assert ms.cov == pytest.approx(np.outer(d, d) / 2.0)


def test_covariance_symmetric_psd():
    rng = derive_substream(107)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw:0.6,2.5,0.6"), rng, size=3000))
    ms = censored_moments(s)
    lmap, scales = influence_map(ms, k=3), raw_scales(ms.a, 3)
    rows_map = scales[:, None] * lmap
    cov = rows_map @ ms.cov @ rows_map.T
    assert np.allclose(cov, cov.T)
    eigenvalues = np.linalg.eigvalsh(cov)
    assert eigenvalues.min() >= -1e-10 * np.trace(cov)


def test_covariance_matches_power_product_rows():
    # the statistics pass equals np.cov of the per-observation power products
    rng = derive_substream(111)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw0:1,1,0.1"), rng, size=2000))
    ms = censored_moments(s)
    assert ms.cov == pytest.approx(np.cov(power_products(s.values, ms.a), ddof=1), rel=1e-12)


def test_point_variance_matches_limit_law():
    # Var of sqrt(n)*(A - a_*) is (L(2 a_*) - e^-2)/m_1^2 in the limit; the
    # W-row variance of the influence rows estimates it
    spec = DistributionSpec.parse("ps:0.5,15")
    rng = derive_substream(108)
    s = Sample.from_values(sample_spec(spec, rng, size=10**5))
    ms = censored_moments(s)
    lmap, scales = influence_map(ms, k=1), raw_scales(ms.a, 1)
    var_w = scales[1] ** 2 * (lmap[1] @ ms.cov @ lmap[1])
    a_star = 15.0**-2.0
    m1 = 0.5 * 225.0 / E
    limit = (laplace_exact(spec, 2.0 * a_star) - math.exp(-2.0)) / m1**2
    assert var_w == pytest.approx(limit, rel=0.10)
