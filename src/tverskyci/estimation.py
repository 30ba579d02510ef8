"""Point estimates, asymptotic variances, and confidence intervals for
Tversky indices and F-beta scores computed from binary prediction data.

Conventions
-----------
Each record pairs a binary label ``z`` with a binary prediction ``a``.
The four joint counts form a :class:`ConfusionCounts` table::

    tp = #(z=1, a=1)    fn = #(z=1, a=0)
    fp = #(z=0, a=1)    tn = #(z=0, a=0)

The Tversky index with false-positive weight ``a`` and false-negative
weight ``b`` (both > 0) is::

    tversky(a, b) = tp / (tp + a*fp + b*fn)

F-beta is the special case a = 1/(1+beta^2), b = beta^2/(1+beta^2), which
is also the weighted harmonic mean (1+beta^2) / (1/precision + beta^2/recall).

For an i.i.d. sample of n records the centered, sqrt(n)-scaled index is
asymptotically normal. Its per-observation variance is::

    variance = (1/t2 - 1 + (1/t - 1)^2) * t^4 / tp_rate

where t is the index, t2 is the index recomputed with squared weights
(a^2, b^2), and tp_rate = tp/n. The standard error is sqrt(variance/n) and
a level-L interval is the estimate +/- normal_quantile((1+L)/2) * se.

Two input paths are first-class: exact confusion counts, or a
:class:`SummaryStats` tuple (n, tp_rate, tversky, tversky_sq) when only
summary values are available. The counts path computes the squared-weight
index exactly rather than approximating it.

All functions are pure and thread-safe; values are freely copyable.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import DegenerateSampleError, InvalidParameterError

__all__ = [
    "ConfusionCounts",
    "TverskyParams",
    "SummaryStats",
    "EstimateReport",
    "fbeta_to_tversky",
    "tversky_index",
    "weighted_error_ratio",
    "precision",
    "recall",
    "summarize",
    "asymptotic_variance",
    "confidence_interval",
    "normal_cdf",
    "normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# numpy scalars pass as numbers.Integral / numbers.Real; the builtins come
# first because isinstance stops at them before the slower ABC check.
_INTEGRAL = (int, numbers.Integral)
_REAL = (float, int, numbers.Real)


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _require_count(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, _INTEGRAL):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    out = int(value)
    if out < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {out}")
    return out


def _require_positive(value: object, name: str) -> float:
    if not isinstance(value, _REAL):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out) or out <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {out}")
    return out


def _require_open_unit(value: object, name: str) -> float:
    if not isinstance(value, _REAL):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}")
    out = float(value)
    if not (0.0 < out < 1.0):
        raise InvalidParameterError(f"{name} must lie in (0, 1), got {out}")
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    """The four joint counts of (label, prediction); sufficient for all
    analytic estimates in this package.

    Field order matches the ``--counts`` CLI flag: tp, fn, fp, tn.
    """

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "tp", _require_count(self.tp, "tp"))
        object.__setattr__(self, "fn", _require_count(self.fn, "fn"))
        object.__setattr__(self, "fp", _require_count(self.fp, "fp"))
        object.__setattr__(self, "tn", _require_count(self.tn, "tn"))
        if self.n < 1:
            raise InvalidParameterError("confusion counts must total at least 1")

    @property
    def n(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    @property
    def tp_rate(self) -> float:
        """Fraction of records that are true positives, tp/n."""
        return self.tp / self.n

    @property
    def label_rate(self) -> float:
        """Fraction of records with a positive label, (tp+fn)/n."""
        return (self.tp + self.fn) / self.n

    @property
    def prediction_rate(self) -> float:
        """Fraction of records with a positive prediction, (tp+fp)/n."""
        return (self.tp + self.fp) / self.n

    def scaled(self, k: int) -> "ConfusionCounts":
        """Counts multiplied cell-wise by a positive integer k."""
        k = _require_count(k, "k")
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        return ConfusionCounts(self.tp * k, self.fn * k, self.fp * k, self.tn * k)


@dataclass(frozen=True, slots=True)
class TverskyParams:
    """Index weights: ``fp_weight`` scales false positives, ``fn_weight``
    scales false negatives. Both must be finite and strictly positive.
    """

    fp_weight: float
    fn_weight: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "fp_weight", _require_positive(self.fp_weight, "fp_weight"))
        object.__setattr__(self, "fn_weight", _require_positive(self.fn_weight, "fn_weight"))

    @property
    def max_weight(self) -> float:
        return max(self.fp_weight, self.fn_weight)

    def squared(self) -> "TverskyParams":
        """Weights squared component-wise; used by the variance formula."""
        try:
            return TverskyParams(self.fp_weight**2, self.fn_weight**2)
        except OverflowError:
            raise InvalidParameterError(
                f"weights ({self.fp_weight:g}, {self.fn_weight:g}) overflow when squared"
            ) from None


def fbeta_to_tversky(beta: float) -> TverskyParams:
    """Weights for which the Tversky index equals the F-beta score.

    fp_weight = 1/(1+beta^2) and fn_weight = beta^2/(1+beta^2); they sum
    to 1 up to floating-point rounding. beta=0.5 gives (0.8, 0.2), beta=1
    gives (0.5, 0.5), beta=2 gives (0.2, 0.8).
    """
    b = _require_positive(beta, "beta")
    denom = 1.0 + b * b
    return TverskyParams(1.0 / denom, b * b / denom)


@dataclass(frozen=True, slots=True)
class SummaryStats:
    """Summary input path: everything the variance formula needs when the
    raw counts are unavailable.

    tversky_sq is the index recomputed with squared weights, not the
    square of the index.
    """

    n: int
    tp_rate: float
    tversky: float
    tversky_sq: float

    def __post_init__(self) -> None:
        n = _require_count(self.n, "n")
        if n < 1:
            raise InvalidParameterError("n must be >= 1")
        try:
            float(n)  # the variance is divided by n, and tp_rate underflows past this
        except OverflowError:
            raise InvalidParameterError("confusion counts are too large for floating point") from None
        object.__setattr__(self, "n", n)
        rate = float(self.tp_rate)
        if not (0.0 <= rate <= 1.0) or not math.isfinite(rate):
            raise InvalidParameterError(f"tp_rate must lie in [0, 1], got {self.tp_rate!r}")
        object.__setattr__(self, "tp_rate", rate)
        for name in ("tversky", "tversky_sq"):
            value = float(getattr(self, name))
            if not (0.0 < value <= 1.0):
                raise InvalidParameterError(f"{name} must lie in (0, 1], got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, slots=True)
class EstimateReport:
    """A point estimate with its large-sample uncertainty summary.

    ``variance`` is on the per-observation scale, so ``se`` equals
    sqrt(variance/n). ``half_width`` is the unclipped half-width
    normal_quantile((1+level)/2) * se; the interval endpoints are clipped
    to [0, 1] afterwards. ``at_boundary`` flags a zero-variance estimate
    (a perfect sample), where the normal approximation is vacuous.
    """

    estimate: float
    variance: float
    se: float
    half_width: float
    ci_lower: float
    ci_upper: float
    level: float
    n: int
    at_boundary: bool


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------


def weighted_error_ratio(counts: ConfusionCounts, params: TverskyParams) -> float:
    """Weighted error mass per true positive: (a*fp + b*fn) / tp.

    Equals 1/tversky_index - 1, but evaluated directly from the counts so
    it stays accurate when the index is close to 1 (where subtracting from
    the reciprocal would cancel).
    """
    if counts.tp == 0:
        raise DegenerateSampleError(
            "sample has no true positives; the index and its variance are undefined"
        )
    return _error_ratio(counts.tp, counts.fn, counts.fp, params)


def _error_ratio(tp, fn, fp, params: TverskyParams):
    # (a*fp + b*fn) / tp for Python ints or int64 arrays alike; int64 converts
    # to float64 with the same rounding as int, so both give the same bits.
    try:
        return (params.fp_weight * fp + params.fn_weight * fn) / tp
    except OverflowError:  # a Python int count beyond the float range
        raise InvalidParameterError("confusion counts are too large for floating point") from None


def tversky_index(counts: ConfusionCounts, params: TverskyParams) -> float:
    """Tversky index tp / (tp + fp_weight*fp + fn_weight*fn), in (0, 1].

    Raises DegenerateSampleError when tp = 0: the estimate would be 0/0 on
    an all-correct-negative sample, and no finite variance exists either
    way because the variance formula divides by tp/n.
    """
    return 1.0 / (1.0 + weighted_error_ratio(counts, params))


def precision(counts: ConfusionCounts) -> float:
    """tp / (tp + fp); errors when there are no positive predictions."""
    predicted = counts.tp + counts.fp
    if predicted == 0:
        raise DegenerateSampleError("no positive predictions; precision is undefined")
    return counts.tp / predicted


def recall(counts: ConfusionCounts) -> float:
    """tp / (tp + fn); errors when there are no positive labels."""
    labeled = counts.tp + counts.fn
    if labeled == 0:
        raise DegenerateSampleError("no positive labels; recall is undefined")
    return counts.tp / labeled


def summarize(counts: ConfusionCounts, params: TverskyParams) -> SummaryStats:
    """Exact summary statistics for the variance formula.

    The squared-weight index is computed from the counts with weights
    (a^2, b^2) directly, not approximated from the plain index.
    """
    return SummaryStats(
        n=counts.n,
        tp_rate=counts.tp_rate,
        tversky=tversky_index(counts, params),
        tversky_sq=tversky_index(counts, params.squared()),
    )


# ---------------------------------------------------------------------------
# asymptotic variance and confidence intervals
# ---------------------------------------------------------------------------

# Slack for the summary-consistency checks below. Each r = 1/t - 1 carries
# rounding error on the scale of 1/t, not of r, so the slack is relative to
# the reciprocals; exact counts then pass however close t is to 1.
_CONSISTENCY_RTOL = 1e-9


def _as_summary(data: ConfusionCounts | SummaryStats, params: TverskyParams) -> SummaryStats:
    if isinstance(data, ConfusionCounts):
        return summarize(data, params)
    if isinstance(data, SummaryStats):
        return data
    raise InvalidParameterError(
        f"expected ConfusionCounts or SummaryStats, got {type(data).__name__}"
    )


def asymptotic_variance(data: ConfusionCounts | SummaryStats, params: TverskyParams) -> float:
    """Per-observation variance of the index estimate.

    variance = (1/t2 - 1 + (1/t - 1)^2) * t^4 / tp_rate with t the index
    and t2 the squared-weight index. Accepts exact counts (summarized
    internally) or ready-made SummaryStats.

    Summary inputs are checked against every bound the counts imply. The
    error-odds ratio (1/t2 - 1) / (1/t - 1) is a weighted mean of the two
    weights, so it lies between min and max(fp_weight, fn_weight). And
    1/t - 1 = (a*fp + b*fn)/tp can be at most max_weight * (1/tp_rate - 1).
    """
    stats = _as_summary(data, params)
    return float(_summary_variance(stats.tversky, stats.tversky_sq, stats.tp_rate, params))


def _variance_kernel(r1, r2, t, tp_rate):
    """(r2 + r1^2) * t^4 / tp_rate with r1 = 1/t - 1 and r2 = 1/t2 - 1, for
    floats or float64 arrays. A float's t ** 4.0 is libm pow, and so is
    np.float_power on arrays: the same bits; ``**`` and np.power on arrays
    are not. Where t^4 falls below the smallest normal double (t under
    about 1.2e-77) but r2 + r1^2 is finite, t^2 is folded into each term
    instead, so the variance does not underflow to 0."""
    if isinstance(t, float):
        t4 = t**4.0
    else:
        import numpy as np  # array callers (the simulation) have loaded it already

        t4 = np.float_power(t, 4.0)
    numerator = r2 + r1 * r1
    variance = numerator * t4 / tp_rate
    tiny = (t4 < sys.float_info.min) & (numerator < math.inf)
    if _any(tiny):
        rt = r1 * t
        scaled = (r2 * t * t + rt * rt) * (t * t) / tp_rate
        variance = scaled if isinstance(t, float) else np.where(tiny, scaled, variance)
    return variance


def _any(mask) -> bool:
    # Scalar callers pass a plain bool, array callers a numpy mask.
    return mask if isinstance(mask, bool) else bool(mask.any())


def _first(mask, *values) -> tuple[float, ...]:
    # The values at the first true entry of mask, for error messages.
    if isinstance(mask, bool):
        return tuple(float(v) for v in values)
    i = mask.argmax()
    return tuple(float(v.flat[i]) for v in values)


def _summary_variance(tversky, tversky_sq, tp_rate, params: TverskyParams):
    """asymptotic_variance on floats or same-shape float64 arrays, after the
    consistency checks; any inconsistent element raises."""
    if _any(tp_rate <= 0.0):
        raise DegenerateSampleError(
            "tp_rate is zero; the variance formula divides by the true-positive rate"
        )
    u1, u2 = 1.0 / tversky, 1.0 / tversky_sq
    r1, r2 = u1 - 1.0, u2 - 1.0
    lo, hi = min(params.fp_weight, params.fn_weight), params.max_weight
    tol = _CONSISTENCY_RTOL
    bad = (r1 > 0.0) & (
        (r2 - hi * r1 > tol * (u2 + hi * u1)) | (lo * r1 - r2 > tol * (u2 + lo * u1))
    )
    if _any(bad):
        bad_r1, bad_r2 = _first(bad, r1, r2)
        raise InvalidParameterError(
            "inconsistent summary statistics: (1/tversky_sq - 1)/(1/tversky - 1) "
            f"= {bad_r2 / bad_r1:.6g} lies outside the weight range [{lo:.6g}, {hi:.6g}]"
        )
    rate_bound = hi * (1.0 / tp_rate - 1.0)
    bad = r1 - rate_bound > tol * (u1 + hi / tp_rate)
    if _any(bad):
        bad_r1, bad_bound = _first(bad, r1, rate_bound)
        raise InvalidParameterError(
            f"inconsistent summary statistics: 1/tversky - 1 = {bad_r1:.6g} exceeds "
            f"max weight * (1/tp_rate - 1) = {bad_bound:.6g}"
        )
    # tversky = 1 means an error-free sample, so tversky_sq must be 1 too.
    bad = (r1 == 0.0) & (r2 > 0.0)
    if _any(bad):
        raise InvalidParameterError(
            "inconsistent summary statistics: tversky is 1 but tversky_sq is "
            f"{_first(bad, tversky_sq)[0]!r}"
        )
    variance = _variance_kernel(r1, r2, tversky, tp_rate)
    # An index near 0 makes 1/t or (1/t - 1)^2 overflow, giving inf or nan.
    bad = (variance != variance) | (variance == math.inf)
    if _any(bad):
        raise InvalidParameterError(
            f"the variance is {_first(bad, variance)[0]!r}: tversky or tversky_sq is too "
            "close to 0 for floating point"
        )
    return variance


def confidence_interval(
    data: ConfusionCounts | SummaryStats,
    params: TverskyParams,
    level: float = 0.95,
) -> EstimateReport:
    """Normal-approximation interval: estimate +/- z * sqrt(variance/n)
    with z = normal_quantile((1+level)/2), endpoints clipped to [0, 1].

    A perfect sample (index 1) is accepted and yields a zero-width
    interval with ``at_boundary`` set; callers should surface that flag as
    a warning since the normal approximation carries no information there.
    """
    level = _require_open_unit(level, "level")
    stats = _as_summary(data, params)
    variance = asymptotic_variance(stats, params)
    se = math.sqrt(variance / stats.n)
    half_width = normal_quantile(0.5 * (1.0 + level)) * se
    return EstimateReport(
        estimate=stats.tversky,
        variance=variance,
        se=se,
        half_width=half_width,
        ci_lower=max(0.0, stats.tversky - half_width),
        ci_upper=min(1.0, stats.tversky + half_width),
        level=level,
        n=stats.n,
        at_boundary=(variance == 0.0),
    )


# ---------------------------------------------------------------------------
# standard normal CDF and quantile
# ---------------------------------------------------------------------------


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate to machine precision."""
    if not math.isfinite(x):
        raise InvalidParameterError(f"x must be finite, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


# Rational approximation of the standard normal quantile (P. J. Acklam),
# ~1e-9 relative on its own; one Halley step below takes it to ~1e-15.
_ACKLAM_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_SPLIT = 0.02425


def _acklam_lower_half(p: float) -> float:
    # p in (0, 0.5]; tail and central branches of the rational approximation
    if p < _ACKLAM_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        c = _ACKLAM_C
        d = _ACKLAM_D
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    a = _ACKLAM_A
    b = _ACKLAM_B
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Rational initial guess refined by one Halley step against the erfc
    CDF; absolute error is below 1e-9 across p in [1e-10, 1 - 1e-10]
    (observed ~2e-15). No dependency beyond math.erfc, so the same digits
    are reproducible anywhere.
    """
    if isinstance(p, bool) or not isinstance(p, _REAL):
        raise InvalidParameterError(f"p must be a number, got {p!r}")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidParameterError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        # 1-p is exact for p >= 0.5, so the reflection loses nothing.
        return -normal_quantile(1.0 - p)
    x = _acklam_lower_half(p)
    # Halley refinement; skipped in the far tail where exp(x^2/2) overflows
    # (|x| > ~37, i.e. p < 1e-300) and the raw approximation must stand.
    if x * x < 1400.0:
        err = 0.5 * math.erfc(-x / _SQRT2) - p
        u = err * _SQRT_TWO_PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x
