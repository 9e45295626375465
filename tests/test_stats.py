"""Statistics module versus closed forms, quadrature, and scipy.

scipy is used here purely as an independent oracle; the package itself
computes every distribution function from scratch.
"""

import math
import random
from fractions import Fraction

import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scriptshift import stats
from scriptshift.stats import (CorrelationResult, PairedSample, TTestResult,
                               average_ranks, paired_t_test, pearson,
                               regularized_incomplete_beta, significance_mask,
                               spearman, t_cdf)


def t_density(x, df):
    coeff = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) \
        / math.sqrt(df * math.pi)
    return coeff * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def t_cdf_by_quadrature(t, df):
    if t < 0:
        return 1.0 - t_cdf_by_quadrature(-t, df)
    central, central_err = scipy.integrate.quad(
        t_density, 0.0, t, args=(df,), epsabs=1e-13, limit=200)
    tail, tail_err = scipy.integrate.quad(
        t_density, t, math.inf, args=(df,), epsabs=1e-13, limit=200)
    if central_err <= tail_err:
        assert central_err < 1e-11
        return 0.5 + central
    assert tail_err < 1e-11
    return 1.0 - tail


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    def test_uniform_case_is_identity(self):
        for x in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == \
                pytest.approx(x, abs=1e-15)

    def test_symmetry_relation(self):
        for a, b in ((0.5, 0.5), (1.0, 3.0), (2.5, 7.0), (10.0, 0.5)):
            for x in (0.05, 0.3, 0.5, 0.7, 0.95):
                direct = regularized_incomplete_beta(a, b, x)
                mirrored = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
                assert direct == pytest.approx(mirrored, abs=1e-13)

    def test_against_scipy_grid(self):
        shapes = (0.5, 1.0, 2.0, 3.5, 10.0, 25.0)
        xs = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
        for a in shapes:
            for b in shapes:
                for x in xs:
                    ours = regularized_incomplete_beta(a, b, x)
                    ref = scipy.special.betainc(a, b, x)
                    assert ours == pytest.approx(ref, rel=1e-12,
                                                 abs=1e-14), (a, b, x)


class TestTCdf:
    def test_center_is_half(self):
        for df in (1, 2, 5, 30, 200):
            assert t_cdf(0.0, df) == 0.5

    def test_cauchy_closed_form(self):
        # one degree of freedom is the Cauchy distribution
        for t in (-50.0, -7.5, -1.0, -0.1, 0.3, 2.0, 12.0, 50.0):
            expected = 0.5 + math.atan(t) / math.pi
            assert t_cdf(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_two_df_closed_form(self):
        for t in (-9.0, -2.0, -0.5, 0.4, 1.0, 6.0):
            expected = 0.5 + t / (2.0 * math.sqrt(t * t + 2.0))
            assert t_cdf(t, 2) == pytest.approx(expected, abs=1e-13)

    def test_symmetry(self):
        for df in (1, 3, 10):
            for t in (0.2, 1.0, 2.5, 8.0):
                assert t_cdf(-t, df) == pytest.approx(1.0 - t_cdf(t, df),
                                                      abs=1e-15)

    def test_monotone_in_t(self):
        for df in (1, 4, 25):
            grid = [t_cdf(-10.0 + 0.5 * i, df) for i in range(41)]
            assert all(lo < hi for lo, hi in zip(grid, grid[1:]))

    def test_infinities_and_errors(self):
        assert t_cdf(math.inf, 5) == 1.0
        assert t_cdf(-math.inf, 5) == 0.0
        with pytest.raises(ValueError):
            t_cdf(math.nan, 5)
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)

    def test_against_scipy_grid(self):
        for df in (1, 2, 3, 5, 10, 30, 100):
            for t in (-20.0, -4.2, -1.3, -0.01, 0.9, 3.3, 15.0):
                assert t_cdf(t, df) == pytest.approx(
                    scipy.stats.t.cdf(t, df), rel=1e-12, abs=1e-14), (t, df)

    def test_against_quadrature(self):
        for df in (1, 3, 7, 20):
            for t in (-6.0, -1.5, 0.8, 4.0):
                assert t_cdf(t, df) == pytest.approx(
                    t_cdf_by_quadrature(t, df), abs=1e-10), (t, df)


class TestPearson:
    def test_hand_computed_fixture(self):
        # centered covariance 3.0 with both variances 5.0 gives r = 0.6
        result = pearson((1.0, 2.0, 3.0, 4.0), (2.0, 1.0, 4.0, 3.0))
        assert result.r == pytest.approx(0.6, abs=1e-15)
        assert result.n == 4
        assert result.method == "pearson"
        ref_r, ref_p = scipy.stats.pearsonr([1, 2, 3, 4], [2, 1, 4, 3])
        assert result.r == pytest.approx(ref_r, abs=1e-14)
        assert result.p_value == pytest.approx(ref_p, rel=1e-10)

    def test_perfect_correlation_is_exact(self):
        up = pearson((1.0, 2.0, 3.0), (3.0, 5.0, 7.0))
        assert (up.r, up.p_value) == (1.0, 0.0)
        down = pearson((1.0, 2.0, 3.0), (0.0, -1.0, -2.0))
        assert (down.r, down.p_value) == (-1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="length"):
            pearson((1.0, 2.0, 3.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="3 points"):
            pearson((1.0, 2.0), (3.0, 4.0))
        with pytest.raises(ValueError, match="constant"):
            pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))

    def test_against_scipy_random(self):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(5, 30)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [0.4 * xi + rng.gauss(0, 1) for xi in x]
            ours = pearson(x, y)
            ref_r, ref_p = scipy.stats.pearsonr(x, y)
            assert ours.r == pytest.approx(ref_r, abs=1e-12), f"seed {seed}"
            assert ours.p_value == pytest.approx(ref_p, rel=1e-9,
                                                 abs=1e-14), f"seed {seed}"


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        x = (1.0, 2.0, 3.0, 4.0, 5.0)
        y = tuple(v ** 3 for v in x)
        result = spearman(x, y)
        assert (result.r, result.p_value) == (1.0, 0.0)
        assert result.method == "spearman"

    def test_reversal_gives_minus_one(self):
        x = (1.0, 2.0, 3.0, 4.0)
        result = spearman(x, tuple(reversed(x)))
        assert (result.r, result.p_value) == (-1.0, 0.0)

    def test_with_ties_against_scipy(self):
        x = (1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 7.0)
        y = (2.0, 1.0, 4.0, 4.0, 6.0, 5.0, 9.0)
        ours = spearman(x, y)
        ref = scipy.stats.spearmanr(x, y)
        assert ours.r == pytest.approx(ref.statistic, abs=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_against_scipy_random(self):
        for seed in range(30):
            rng = random.Random(100 + seed)
            n = rng.randint(5, 25)
            # quantized values so ties actually occur
            x = [round(rng.uniform(0, 5)) * 1.0 for _ in range(n)]
            y = [round(rng.uniform(0, 5)) * 1.0 for _ in range(n)]
            try:
                ours = spearman(x, y)
            except ValueError:
                continue  # constant series after quantization
            ref = scipy.stats.spearmanr(x, y)
            assert ours.r == pytest.approx(ref.statistic,
                                           abs=1e-12), f"seed {seed}"
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9,
                                                 abs=1e-14), f"seed {seed}"


class TestAverageRanks:
    def test_tie_fixture(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_all_equal(self):
        assert average_ranks([7.0, 7.0, 7.0]) == [2.0, 2.0, 2.0]

    def test_against_scipy_rankdata(self):
        for seed in range(20):
            rng = random.Random(200 + seed)
            values = [round(rng.uniform(0, 4), 1)
                      for _ in range(rng.randint(1, 20))]
            assert average_ranks(values) == \
                list(scipy.stats.rankdata(values))


class TestPairedTTest:
    def test_identical_measurements(self):
        sample = PairedSample(("a", "b", "c"), (1.0, 2.0, 3.0),
                              (1.0, 2.0, 3.0))
        assert paired_t_test(sample) == TTestResult(0.0, 1.0, 3)

    def test_hand_computed_fixture(self):
        # differences (1, 2, 3, 4): t = sqrt(15) with three degrees of freedom
        sample = PairedSample(("w", "x", "y", "z"), (2.0, 4.0, 6.0, 8.0),
                              (1.0, 2.0, 3.0, 4.0))
        result = paired_t_test(sample)
        assert result.t == pytest.approx(math.sqrt(15.0), abs=1e-13)
        assert result.n == 4
        ref = scipy.stats.ttest_rel([2, 4, 6, 8], [1, 2, 3, 4])
        assert result.p_value == pytest.approx(ref.pvalue, rel=1e-12)
        quad_p = 2.0 * (1.0 - t_cdf_by_quadrature(math.sqrt(15.0), 3))
        assert result.p_value == pytest.approx(quad_p, abs=1e-10)

    def test_swapping_sides_negates_t(self):
        a = (1.0, 3.0, 2.0, 5.0)
        b = (0.5, 3.5, 1.0, 4.0)
        labels = ("p", "q", "r", "s")
        forward = paired_t_test(PairedSample(labels, a, b))
        backward = paired_t_test(PairedSample(labels, b, a))
        assert forward.t == pytest.approx(-backward.t, abs=1e-15)
        assert forward.p_value == pytest.approx(backward.p_value, abs=1e-15)

    def test_constant_nonzero_difference(self):
        sample = PairedSample(("a", "b"), (2.0, 3.0), (1.0, 2.0))
        assert paired_t_test(sample) == TTestResult(math.inf, 0.0, 2)
        flipped = PairedSample(("a", "b"), (1.0, 2.0), (2.0, 3.0))
        assert paired_t_test(flipped) == TTestResult(-math.inf, 0.0, 2)

    def test_against_scipy_random(self):
        for seed in range(40):
            rng = random.Random(300 + seed)
            n = rng.randint(3, 30)
            a = [rng.gauss(0.2, 1) for _ in range(n)]
            b = [rng.gauss(0.0, 1) for _ in range(n)]
            labels = tuple(f"l{i}" for i in range(n))
            ours = paired_t_test(PairedSample(labels, tuple(a), tuple(b)))
            ref = scipy.stats.ttest_rel(a, b)
            assert ours.t == pytest.approx(ref.statistic,
                                           rel=1e-12), f"seed {seed}"
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9,
                                                 abs=1e-14), f"seed {seed}"

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="align"):
            PairedSample(("a",), (1.0, 2.0), (1.0, 2.0))
        with pytest.raises(ValueError, match="two pairs"):
            PairedSample(("a",), (1.0,), (1.0,))


class TestSignificance:
    def test_mask(self):
        mask = significance_mask({"x": 0.01, "y": 0.20, "z": 0.05})
        assert mask == {"x": True, "y": False, "z": False}

    def test_custom_alpha(self):
        assert significance_mask({"x": 0.07}, alpha=0.1) == {"x": True}

    def test_alpha_validation(self):
        for alpha in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                significance_mask({"x": 0.01}, alpha=alpha)

    def test_correlation_result_significant(self):
        result = CorrelationResult("pearson", 0.9, 0.001, 10)
        assert result.significant()
        assert not result.significant(alpha=0.0005)


# --- Exact moments and the references they replaced ------------------------


def fraction_moments(x, y):
    """Centered covariance and variances in exact rational arithmetic: the
    moments correlations were decided on before integer moments."""
    n = len(x)
    ex = [Fraction(v) for v in x]
    ey = [Fraction(v) for v in y]
    mean_x = sum(ex) / n
    mean_y = sum(ey) / n
    dx = [v - mean_x for v in ex]
    dy = [v - mean_y for v in ey]
    cov = sum(a * b for a, b in zip(dx, dy))
    var_x = sum(d * d for d in dx)
    var_y = sum(d * d for d in dy)
    return cov, var_x, var_y


def fraction_pearson_core(x, y, method):
    """The correlation as computed over Fraction moments, kept verbatim as
    the oracle for inputs whose float moments do not overflow."""
    n = len(x)
    if n != len(y):
        raise ValueError(f"series differ in length: {n} vs {len(y)}")
    if n < 3:
        raise ValueError(f"correlation needs at least 3 points, got {n}")
    exact_cov, exact_var_x, exact_var_y = fraction_moments(x, y)
    if exact_var_x == 0 or exact_var_y == 0:
        raise ValueError("correlation is undefined for a constant series")
    df = n - 2
    if exact_cov * exact_cov == exact_var_x * exact_var_y:
        r = 1.0 if exact_cov > 0 else -1.0
        return CorrelationResult(method=method, r=r, p_value=0.0, n=n)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    var_x = math.fsum(d * d for d in dx)
    var_y = math.fsum(d * d for d in dy)
    if var_x == 0.0 or var_y == 0.0:
        ratio = (exact_cov * exact_cov) / (exact_var_x * exact_var_y)
        r = math.copysign(math.sqrt(float(ratio)), float(exact_cov))
    else:
        cov = math.fsum(a * b for a, b in zip(dx, dy))
        r = cov / (math.sqrt(var_x) * math.sqrt(var_y))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = stats._two_sided_p(t, df)
    return CorrelationResult(method=method, r=r, p_value=p, n=n)


def reference_paired_t_test(sample):
    """paired_t_test before overflowing steps were rescaled. Each square is
    the mantissa's square times the exponent's, as in paired_t_test, so the
    two agree bit for bit; `d ** 2` differs in the last bit on some d."""
    diffs = [ai - bi for ai, bi in zip(sample.a, sample.b)]
    n = len(diffs)
    mean = math.fsum(diffs) / n
    squares = []
    for d in diffs:
        mantissa, exponent = math.frexp(d - mean)
        squares.append(math.ldexp(mantissa ** 2, 2 * exponent))
    var = math.fsum(squares) / (n - 1)
    sd = math.sqrt(var)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p_value=1.0, n=n)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, p_value=0.0, n=n)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, p_value=stats._two_sided_p(t, n - 1), n=n)


def outcome(fn, *args):
    """A result's fields with floats as hex (so -0.0 differs from 0.0), or
    the error raised."""
    try:
        result = fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(result, CorrelationResult):
        result = (result.method, result.r, result.p_value, result.n)
    return tuple(v.hex() if isinstance(v, float) else v for v in result)


SPECIAL_VALUES = (0.0, -0.0, 1.0, 0.1, 5e-324, -5e-324, 1e-310,
                  2.2250738585072014e-308, 1e150, -1e150, 1e300, -1e300,
                  1.7e308)


@st.composite
def series_pairs(draw, magnitude=1.7976931348623157e308):
    """Two aligned series of ints and finite floats up to magnitude, with
    subnormals, ties, constant series, ranks and exact collinearity."""
    value = st.one_of(
        st.integers(-10 ** 6, 10 ** 6),
        st.floats(-magnitude, magnitude),
        st.sampled_from([v for v in SPECIAL_VALUES if abs(v) <= magnitude]))
    n = draw(st.integers(3, 9))
    pool = draw(st.lists(value, min_size=1, max_size=n))
    series = st.lists(st.one_of(st.sampled_from(pool), value),
                      min_size=n, max_size=n)
    x = draw(series)
    kind = draw(st.sampled_from(["free", "double", "reflect", "constant",
                                 "ranks"]))
    if kind == "free":
        y = draw(series)
    elif kind == "double":
        y = [2 * v for v in x]
    elif kind == "reflect":
        c = draw(value)
        y = [c - v for v in x]
    elif kind == "constant":
        y = [draw(value)] * n
    else:
        x, y = stats.average_ranks(x), stats.average_ranks(draw(series))
    if draw(st.booleans()):
        x, y = y, x
    assume(all(map(math.isfinite, x + y)))  # 2 * v and c - v may overflow
    return x, y


def _sign(v):
    return (v > 0) - (v < 0)


class TestIntegerMoments:
    @given(series_pairs())
    @settings(max_examples=400, deadline=None)
    def test_match_fraction_oracle(self, case):
        x, y = case
        cov, var_x, var_y = stats._integer_moments(x, y)
        f_cov, f_var_x, f_var_y = fraction_moments(x, y)
        assert all(type(v) is int for v in (cov, var_x, var_y))
        assert (var_x == 0, var_y == 0) == (f_var_x == 0, f_var_y == 0)
        assert _sign(cov) == _sign(f_cov)
        assert (cov * cov == var_x * var_y) == \
            (f_cov * f_cov == f_var_x * f_var_y)
        if f_var_x and f_var_y:
            # n*sx^2, n*sy^2 and n*sx*sy: positive, and the middle one the
            # geometric mean of the others
            fx, fy = var_x / f_var_x, var_y / f_var_y
            assert fx > 0 and fy > 0
            if f_cov:
                assert (cov / f_cov) ** 2 == fx * fy
            assert Fraction(cov * cov, var_x * var_y) == \
                f_cov * f_cov / (f_var_x * f_var_y)

    @given(series_pairs(magnitude=1e100))
    @settings(max_examples=400, deadline=None)
    def test_pearson_and_spearman_match_fraction_reference(self, case):
        x, y = case
        assert outcome(pearson, x, y) == \
            outcome(fraction_pearson_core, x, y, "pearson")
        assert outcome(spearman, x, y) == outcome(
            fraction_pearson_core, stats.average_ranks(x),
            stats.average_ranks(y), "spearman")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise_as_before(self, bad):
        for x, y in (([1.0, bad, 2.0], [1.0, 2.0, 4.0]),
                     ([1.0, 2.0, 4.0], [bad, 1.0, 2.0])):
            assert outcome(pearson, x, y) == \
                outcome(fraction_pearson_core, x, y, "pearson")

    def test_collinear_and_constant_series(self):
        x = [0.1, 0.7, 1e-310, 3, 1e300]
        assert (pearson(x, [2 * v for v in x]).r,
                pearson(x, [-v for v in x]).r) == (1.0, -1.0)
        with pytest.raises(ValueError, match="constant"):
            pearson(x, [5e-324] * 5)

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=9),
           st.integers(900, 1000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_overflowing_float_moments_give_exact_ratio(self, ms, k, data):
        # every deviation of x is at least 2**899, so its square overflows
        x = [math.ldexp(m, k) for m in ms]
        y = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(x),
                               max_size=len(x)))
        f_cov, f_var_x, f_var_y = fraction_moments(x, y)
        assume(f_var_x and f_var_y)
        ratio = f_cov * f_cov / (f_var_x * f_var_y)
        expected = math.sqrt(float(ratio))
        if f_cov < 0:
            expected = -expected
        assert pearson(x, y).r == expected

    def test_overflowing_squared_deviations(self):
        result = pearson([1e200, -1e200, 5e199, 3e199], [1, 2, 3, 5])
        assert result.r == pytest.approx(-2 / math.sqrt(218 * 8.75),
                                         rel=1e-12)
        assert 0.9 < result.p_value < 1.0


class TestPairedTTestOverflow:
    @given(st.lists(st.tuples(st.floats(-1e100, 1e100),
                              st.floats(-1e100, 1e100)), min_size=2,
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_ordinary_inputs_match_reference(self, pairs):
        labels = tuple(str(i) for i in range(len(pairs)))
        sample = PairedSample(labels, tuple(a for a, _ in pairs),
                              tuple(b for _, b in pairs))
        assert outcome(paired_t_test, sample) == \
            outcome(reference_paired_t_test, sample)

    @given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)),
                    min_size=2, max_size=12), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    # `(d - mean) ** 2` gave t one ulp apart at the two scales on these
    @example([(16.041925570025423, -790.0440282733862),
              (169.0070801159771, -83.76599453470646),
              (362.3405696203681, -611.8963268557093),
              (573.4505946815888, 0.05)]
             + [(578.0696394692178, -277.5244552559876)] * 3
             + [(737.1388563072312, 0.0), (0.001, 1000.0)], 0)
    @example([(2.0, 0.05)] * 2 + [(14.706935620529377, 2.0)]
             + [(14.706935620529377, 698.3964224165359)] * 2
             + [(439.5852456712828, 749.8096699547166)] * 2
             + [(0.3333333333333333, -812.032748913257)] * 2, 0)
    @example([(1.9, 661.8862211193086),
              (473.45978296270766, -161.93309000374234),
              (668.2810366726073, 508.6948857022246), (0.5, 0.0),
              (0.5, 523.9969706872207), (0.001, 0.5)], 0)
    def test_power_of_two_scale_keeps_t(self, pairs, headroom):
        labels = tuple(str(i) for i in range(len(pairs)))
        a = tuple(v for v, _ in pairs)
        b = tuple(v for _, v in pairs)
        top = max(map(abs, a + b))
        k = 1020 - headroom - math.frexp(top)[1]
        scaled = PairedSample(labels, tuple(math.ldexp(v, k) for v in a),
                              tuple(math.ldexp(v, k) for v in b))
        assert outcome(paired_t_test, scaled) == \
            outcome(paired_t_test, PairedSample(labels, a, b))

    def test_squared_deviation_overflow(self):
        sample = PairedSample(("a", "b", "c"), (1e308, -1e308, 0.0),
                              (0.0, 0.0, 0.0))
        assert paired_t_test(sample) == TTestResult(0.0, 1.0, 3)

    def test_difference_overflow(self):
        sample = PairedSample(("a", "b", "c"), (1.7e308, -1.7e308, 1.0),
                              (-1.7e308, 1.7e308, 0.0))
        result = paired_t_test(sample)
        assert result.t == pytest.approx(1 / 3 / (3.4e308 / math.sqrt(3)),
                                         rel=1e-9)
        assert result.p_value == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_measurements_rejected(self, bad):
        for a, b in (((bad, 1.0), (0.0, 0.0)), ((1.0, 2.0), (0.0, bad))):
            with pytest.raises(ValueError, match="finite"):
                paired_t_test(PairedSample(("a", "b"), a, b))
