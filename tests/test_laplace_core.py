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
    influence_rows,
    laplace_exact,
    load_sample,
    sample_covariance,
    sample_spec,
    solve_censoring_point,
)
from laplacefit.errors import (
    AllZeroSampleError,
    DegenerateMomentsError,
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


def test_moments_constant_sample():
    k = 2.5
    s = Sample.from_values([k] * 50)
    ms = censored_moments(s, r_max=4)
    for r in range(5):
        assert ms.m(r) == pytest.approx(k**r * math.exp(-1.0), rel=1e-11)


def test_moment_zero_equals_target():
    rng = derive_substream(103)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("we:1,1"), rng, size=5000))
    ms = censored_moments(s)
    assert abs(ms.m(0) - ms.c_target) <= SOLVER_RTOL * ms.c_target


def test_moments_ps_first_moment():
    rng = derive_substream(104)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.5,15"), rng, size=10**5))
    # population m_1 = gamma/(e*a_*) with a_* = 15**-2
    expected = 0.5 * 225.0 / E
    assert censored_moments(s).m(1) == pytest.approx(expected, rel=0.03)


def test_moments_tw_first_moment():
    rng = derive_substream(105)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw:0.5,2,0.5"), rng, size=10**5))
    a_star = (0.5 + 0.5**0.5) ** 2 - 0.5
    expected = 0.5 * 2.0 * math.exp(-1.0) * (0.5 + a_star) ** -0.5
    assert censored_moments(s).m(1) == pytest.approx(expected, rel=0.03)


def test_moments_survive_huge_values():
    # x**4 overflows for the largest entry but exp(-a*x) underflows to an
    # exact zero there, so the product must come back as zero, not NaN
    s = Sample.from_values([0.5, 1.0, 2.0, 1e120])
    ms = censored_moments(s, r_max=4)
    assert np.isfinite(ms.m_hat).all()


# ---------------------------------------------------------------------------
# influence rows and covariance


def test_influence_rows_hand_computed():
    s = Sample.from_values([0.0, 2.0])
    ms = censored_moments_at(s, math.log(2.0), r_max=2)
    assert ms.m(1) == pytest.approx(0.25, rel=1e-15)
    assert ms.m(2) == pytest.approx(0.5, rel=1e-15)
    rows = influence_rows(s, ms, k=1)
    v1 = rows.moment_rows()[:, 0]
    assert v1[0] == pytest.approx(-2.0, rel=1e-14)
    assert v1[1] == pytest.approx(0.0, abs=1e-14)


def test_influence_point_row_identity():
    rng = derive_substream(106)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("ps:0.4,5"), rng, size=2000))
    ms = censored_moments(s)
    rows = influence_rows(s, ms, k=3)
    assert rows.point_row().mean() == pytest.approx(ms.m(0) / ms.m(1), rel=1e-12)


def test_influence_rows_degenerate_moments():
    s = Sample.from_values([0.0, 2.0])
    ms = censored_moments_at(s, 1.0, r_max=2)
    forced = type(ms)(a=ms.a, c_target=ms.c_target, m_hat=np.zeros(3), p_hat=ms.p_hat)
    with pytest.raises(DegenerateMomentsError):
        influence_rows(s, forced, k=1)


def test_covariance_constant_rows():
    from laplacefit.laplace_core import InfluenceRows

    rows = InfluenceRows(matrix=np.ones((10, 2)), k=1)
    assert np.allclose(sample_covariance(rows), 0.0)


def test_covariance_two_point_hand_value():
    from laplacefit.laplace_core import InfluenceRows

    rows = InfluenceRows(matrix=np.array([[-2.0, 4.0], [0.0, 1.0]]), k=1)
    cov = sample_covariance(rows)
    assert cov == pytest.approx(np.array([[2.0, -3.0], [-3.0, 4.5]]))


def test_covariance_symmetric_psd():
    rng = derive_substream(107)
    s = Sample.from_values(sample_spec(DistributionSpec.parse("tw:0.6,2.5,0.6"), rng, size=3000))
    cov = sample_covariance(influence_rows(s, censored_moments(s), k=3))
    assert np.allclose(cov, cov.T)
    eigenvalues = np.linalg.eigvalsh(cov)
    assert eigenvalues.min() >= -1e-10 * np.trace(cov)


def test_point_variance_matches_limit_law():
    # Var of sqrt(n)*(A - a_*) is (L(2 a_*) - e^-2)/m_1^2 in the limit; the
    # W-row variance of the influence matrix estimates it
    spec = DistributionSpec.parse("ps:0.5,15")
    rng = derive_substream(108)
    s = Sample.from_values(sample_spec(spec, rng, size=10**5))
    ms = censored_moments(s)
    cov = sample_covariance(influence_rows(s, ms, k=1))
    a_star = 15.0**-2.0
    m1 = 0.5 * 225.0 / E
    limit = (laplace_exact(spec, 2.0 * a_star) - math.exp(-2.0)) / m1**2
    assert cov[1, 1] == pytest.approx(limit, rel=0.10)
