"""Correlation and paired-difference tests with an exact t-distribution tail.

The t CDF is evaluated through the regularized incomplete beta function,
computed with a continued fraction (modified Lentz iteration) and log-gamma
scaling. Sums use compensated summation so results are stable for the small
sample sizes these analyses run at.

Correlations decide constant series and perfect collinearity on exact
integer moments: every value is an integer over one power-of-two scale per
series, so the centered moments times a positive factor are exact Python
ints. Where float cancellation, underflow or overflow spoils the
compensated float moments, r is the exact moment ratio rounded once. The
paired t-test rescales both sides by one power of two when a step of it
overflows, and squares each deviation through its mantissa, so t is the
same, bit for bit, under any common power-of-two scale.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

SIGNIFICANCE_LEVEL = 0.05

_CF_MAX_ITER = 400
_CF_EPS = 3e-16
_CF_TINY = 1e-300


@dataclass(frozen=True)
class CorrelationResult:
    method: str
    r: float
    p_value: float
    n: int

    def significant(self, alpha: float = SIGNIFICANCE_LEVEL) -> bool:
        return self.p_value < alpha


class TTestResult(NamedTuple):
    t: float
    p_value: float
    n: int


@dataclass(frozen=True)
class PairedSample:
    """Two measurements of the same items, aligned by position."""

    labels: tuple[str, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.labels) == len(self.a) == len(self.b)):
            raise ValueError("labels and both measurement lists must align")
        if len(self.a) < 2:
            raise ValueError("paired test needs at least two pairs")


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, evaluated with the
    modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for "
                          f"a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got {a}, {b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # The continued fraction converges fast only on one side of the mean;
    # use the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def t_cdf(t: float, df: int) -> float:
    """Cumulative distribution of Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t statistic is NaN")
    tail = 0.5 * _two_sided_p(t, df)
    return 1.0 - tail if t > 0 else tail


def _two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|); the incomplete beta gives this in one call."""
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties sharing their average rank."""
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def _integer_moments(x: Sequence[float], y: Sequence[float],
                     ) -> tuple[int, int, int]:
    """Exact n*sum(xy) - sum(x)*sum(y), n*sum(x^2) - sum(x)^2 and
    n*sum(y^2) - sum(y)^2, with each series written as integers over one
    scale (a power of two for floats).

    These are the centered covariance and variances times n*sx*sy, n*sx^2
    and n*sy^2 for the scales sx and sy, so zero variances, the sign of
    the covariance, perfect collinearity (C^2 == Vx*Vy) and the ratio
    C^2 / (Vx*Vy) are exact and mean what they mean for the moments."""
    n = len(x)
    xs, ys = _scaled(x), _scaled(y)
    sum_x, sum_y = sum(xs), sum(ys)
    cov = n * sum(map(operator.mul, xs, ys)) - sum_x * sum_y
    var_x = n * sum(map(operator.mul, xs, xs)) - sum_x * sum_x
    var_y = n * sum(map(operator.mul, ys, ys)) - sum_y * sum_y
    return cov, var_x, var_y


def _scaled(values: Sequence[float]) -> list[int]:
    """values[i] * scale as exact integers, for the least common scale;
    NaN raises ValueError and an infinity OverflowError."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios]


def _float_r(x: Sequence[float], y: Sequence[float]) -> float | None:
    """r from compensated float moments, or None where those fail: a
    variance lost to cancellation or underflow, or a step that overflows."""
    n = len(x)
    try:
        mean_x = math.fsum(x) / n
        mean_y = math.fsum(y) / n
        dx = [v - mean_x for v in x]
        dy = [v - mean_y for v in y]
        var_x = math.fsum(d * d for d in dx)
        var_y = math.fsum(d * d for d in dy)
        norms = math.sqrt(var_x) * math.sqrt(var_y)
        if not 0.0 < norms < math.inf:
            return None
        return math.fsum(a * b for a, b in zip(dx, dy)) / norms
    except OverflowError:
        return None


def _pearson_core(x: Sequence[float], y: Sequence[float],
                  method: str) -> CorrelationResult:
    n = len(x)
    if n != len(y):
        raise ValueError(f"series differ in length: {n} vs {len(y)}")
    if n < 3:
        raise ValueError(f"correlation needs at least 3 points, got {n}")
    cov, var_x, var_y = _integer_moments(x, y)
    if var_x == 0 or var_y == 0:
        raise ValueError("correlation is undefined for a constant series")
    df = n - 2
    if cov * cov == var_x * var_y:
        r = 1.0 if cov > 0 else -1.0
        return CorrelationResult(method=method, r=r, p_value=0.0, n=n)
    r = _float_r(x, y)
    if r is None:
        # the exact ratio, rounded once
        r = math.sqrt(cov * cov / (var_x * var_y))
        if cov < 0:
            r = -r
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = _two_sided_p(t, df)
    return CorrelationResult(method=method, r=r, p_value=p, n=n)


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson correlation with a two-sided p computed from the exact t
    transform t = r * sqrt((n-2) / (1-r^2))."""
    return _pearson_core(list(x), list(y), "pearson")


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Spearman rank correlation: Pearson over average ranks."""
    return _pearson_core(average_ranks(list(x)), average_ranks(list(y)),
                         "spearman")


def paired_t_test(sample: PairedSample) -> TTestResult:
    """Two-sided paired t-test on the positionwise differences a - b.

    An all-zero difference vector returns t=0, p=1; a constant non-zero
    difference has no sampling variance and returns an infinite t with p=0.
    """
    n = len(sample.a)
    moments = _difference_moments(sample.a, sample.b)
    if moments is None:
        values = [*sample.a, *sample.b]
        if not all(map(math.isfinite, values)):
            raise ValueError("paired test needs finite measurements")
        shift = -math.frexp(max(map(abs, values)))[1]
        moments = _difference_moments(
            [math.ldexp(v, shift) for v in sample.a],
            [math.ldexp(v, shift) for v in sample.b])
    mean, sd = moments
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p_value=1.0, n=n)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, p_value=0.0, n=n)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, p_value=_two_sided_p(t, n - 1), n=n)


def _difference_moments(a: Sequence[float], b: Sequence[float],
                        ) -> tuple[float, float] | None:
    """Mean and sample standard deviation of a - b, or None when a step
    overflows."""
    diffs = [ai - bi for ai, bi in zip(a, b)]
    if not all(map(math.isfinite, diffs)):
        return None
    n = len(diffs)
    try:
        mean = math.fsum(diffs) / n
        var = math.fsum(_square(d - mean) for d in diffs) / (n - 1)
    except OverflowError:
        return None
    if var == math.inf:
        return None
    return mean, math.sqrt(var)


def _square(d: float) -> float:
    """d ** 2 with the exponent taken out: C pow's last bit can depend on
    d's exponent, its mantissa's square does not, so a power-of-two scale
    of d scales the result exactly. OverflowError past the float range."""
    mantissa, exponent = math.frexp(d)
    return math.ldexp(mantissa ** 2, 2 * exponent)


def significance_mask(p_values: Mapping, alpha: float = SIGNIFICANCE_LEVEL,
                      ) -> dict:
    """Boolean mask over a keyed collection of p-values."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return {key: p < alpha for key, p in p_values.items()}
