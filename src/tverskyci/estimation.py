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
summary values are available. Counts give 1/t - 1 and 1/t2 - 1 directly
as the weighted error ratios (a*fp + b*fn)/tp and (a^2*fp + b^2*fn)/tp,
which keep every digit however close t is to 1; one private function
turns them into the index and variance for counts, cell probabilities and
replication arrays. Summaries are checked against every bound counts imply.

All functions are pure and thread-safe; values are freely copyable.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import _ESTIMATION_NAMES
from .errors import DegenerateSampleError, InvalidParameterError

__all__ = sorted(_ESTIMATION_NAMES)

_SQRT2 = math.sqrt(2.0)
_QUOTED = 64  # characters of a caller's value that an error message quotes


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _quote(value: object) -> str:
    """repr(value), cut for a value longer than _QUOTED characters (a str, or
    else its repr) to that many and followed by the length, so that a huge
    value cannot make a huge error message. Never raises: an int past str()'s
    digit limit is described by its sign and bit length."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except Exception:  # the digit limit, also inside a container, or a broken __repr__
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
        return f"a {type(value).__name__} that cannot be printed"
    quoted = repr if text is value else str  # a repr is quoted already
    if len(text) <= _QUOTED:
        return quoted(text)
    return f"{quoted(text[:_QUOTED])}... ({len(text)} characters)"


def _is_number(value: object, kind: str) -> bool:
    """Whether value is a numbers.Integral or numbers.Real (kind names which),
    as numpy scalars and Fraction are. The callers test int and float first,
    so a command that passes only those never loads numbers."""
    import numbers

    return isinstance(value, getattr(numbers, kind))


def _require_count(value: object, name: str, least: int = 0, bits: int | None = None) -> int:
    """An integer of at least ``least`` that, given ``bits``, is below 2**bits."""
    if isinstance(value, bool) or not (isinstance(value, int) or _is_number(value, "Integral")):
        raise InvalidParameterError(f"{name} must be an integer, got {_quote(value)}")
    out = int(value)
    if out < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {_quote(out)}")
    if bits is not None and out >= 2**bits:
        raise InvalidParameterError(f"{name} must fit in {bits} bits, got {_quote(out)}")
    return out


def _require_real(value: object, name: str) -> float:
    if isinstance(value, bool) or not (
        isinstance(value, (float, int)) or _is_number(value, "Real")
    ):
        raise InvalidParameterError(f"{name} must be a number, got {_quote(value)}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range; the caller's range check names it
        return math.inf if value > 0 else -math.inf


def _require_finite(value: object, name: str) -> float:
    out = _require_real(value, name)
    if not math.isfinite(out):
        raise InvalidParameterError(f"{name} must be finite, got {out!r}")
    return out


def _require_positive(value: object, name: str) -> float:
    out = _require_real(value, name)
    if not math.isfinite(out) or out <= 0.0:
        raise InvalidParameterError(f"{name} must be finite and > 0, got {out}")
    return out


def _require_type(value: object, cls: type, name: str) -> None:
    if not isinstance(value, cls):
        raise InvalidParameterError(f"{name} must be a {cls.__name__}")


def _require_float_range(n: int) -> int:
    try:
        float(n)  # the variance is divided by n, and tp_rate underflows past this
    except OverflowError:
        raise InvalidParameterError("confusion counts are too large for floating point") from None
    return n


def _require_open_unit(value: object, name: str) -> float:
    out = _require_real(value, name)
    if not (0.0 < out < 1.0):
        raise InvalidParameterError(f"{name} must lie in (0, 1), got {out}")
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def _record(field_names: str) -> type:
    """A named-tuple base for a record class. Its _make, and so _replace, goes
    through the record's constructor and checks; namedtuple's own skip them."""
    base = namedtuple("_Record", field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class ConfusionCounts(_record("tp fn fp tn")):
    """The four joint counts of (label, prediction); sufficient for all
    analytic estimates in this package.

    Field order matches the ``--counts`` CLI flag: tp, fn, fp, tn.
    """

    __slots__ = ()

    def __new__(cls, tp: int, fn: int, fp: int, tn: int) -> "ConfusionCounts":
        cells = [_require_count(v, name) for v, name in zip((tp, fn, fp, tn), cls._fields)]
        if sum(cells) < 1:
            raise InvalidParameterError("confusion counts must total at least 1")
        return super().__new__(cls, *cells)

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
        k = _require_count(k, "k", 1)
        return ConfusionCounts(self.tp * k, self.fn * k, self.fp * k, self.tn * k)


class TverskyParams(_record("fp_weight fn_weight")):
    """Index weights: ``fp_weight`` scales false positives, ``fn_weight``
    scales false negatives. Both must be finite and strictly positive.
    """

    __slots__ = ()

    def __new__(cls, fp_weight: float, fn_weight: float) -> "TverskyParams":
        fp_weight = _require_positive(fp_weight, "fp_weight")
        return super().__new__(cls, fp_weight, _require_positive(fn_weight, "fn_weight"))

    @property
    def max_weight(self) -> float:
        return max(self.fp_weight, self.fn_weight)

    def squared(self) -> "TverskyParams":
        """Weights squared component-wise; used by the variance formula."""
        try:
            return TverskyParams(self.fp_weight**2, self.fn_weight**2)
        except (OverflowError, InvalidParameterError) as exc:  # the constructor rejects 0.0
            way = "overflow" if isinstance(exc, OverflowError) else "underflow"
            raise InvalidParameterError(
                f"weights ({self.fp_weight:g}, {self.fn_weight:g}) {way} when squared"
            ) from None


def fbeta_to_tversky(beta: float) -> TverskyParams:
    """Weights for which the Tversky index equals the F-beta score.

    fp_weight = 1/(1+beta^2) and fn_weight = beta^2/(1+beta^2); they sum
    to 1 up to floating-point rounding. beta=0.5 gives (0.8, 0.2), beta=1
    gives (0.5, 0.5), beta=2 gives (0.2, 0.8).
    """
    b = _require_positive(beta, "beta")
    b2 = b * b
    if b2 == math.inf or b2 == 0.0:  # either would make a weight 0
        way = "overflows" if b2 else "underflows"
        raise InvalidParameterError(f"beta {b:g} {way} when squared")
    denom = 1.0 + b2
    return TverskyParams(1.0 / denom, b2 / denom)


class SummaryStats(_record("n tp_rate tversky tversky_sq")):
    """Summary input path: everything the variance formula needs when the
    raw counts are unavailable.

    tversky_sq is the index recomputed with squared weights, not the
    square of the index.
    """

    __slots__ = ()

    def __new__(cls, n: int, tp_rate: float, tversky: float, tversky_sq: float) -> "SummaryStats":
        n = _require_count(n, "n", 1)
        try:
            float(n)  # as for counts, the variance is divided by n
        except OverflowError:
            raise InvalidParameterError(f"n must fit in a float, got {_quote(n)}") from None
        fields = [n, _require_real(tp_rate, "tp_rate")]
        if not (0.0 <= fields[1] <= 1.0):  # nan fails it too
            raise InvalidParameterError(f"tp_rate must lie in [0, 1], got {fields[1]!r}")
        for name, value in (("tversky", tversky), ("tversky_sq", tversky_sq)):
            value = _require_real(value, name)
            if not (0.0 < value <= 1.0):
                raise InvalidParameterError(f"{name} must lie in (0, 1], got {value!r}")
            fields.append(value)
        return super().__new__(cls, *fields)


class EstimateReport(
    _record("estimate variance se half_width ci_lower ci_upper level n at_boundary")
):
    """A point estimate with its large-sample uncertainty summary.

    ``variance`` is on the per-observation scale, so ``se`` equals
    sqrt(variance/n). ``half_width`` is the unclipped half-width
    normal_quantile((1+level)/2) * se; the interval endpoints are clipped
    to [0, 1] afterwards. ``at_boundary`` flags a zero-variance estimate
    (a perfect sample), where the normal approximation is vacuous.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------


def weighted_error_ratio(counts: ConfusionCounts, params: TverskyParams) -> float:
    """Weighted error mass per true positive: (a*fp + b*fn) / tp.

    Equals 1/tversky_index - 1, but evaluated directly from the counts so
    it stays accurate when the index is close to 1 (where subtracting from
    the reciprocal would cancel).
    """
    return _error_ratio(*_positive_counts(counts), params)


def _positive_counts(counts: ConfusionCounts) -> tuple[int, int, int]:
    """The (tp, fn, fp) of counts, which must have true positives."""
    _require_type(counts, ConfusionCounts, "counts")
    if counts.tp == 0:
        raise DegenerateSampleError(
            "sample has no true positives; the index and its variance are undefined"
        )
    return counts.tp, counts.fn, counts.fp


def _error_ratio(tp, fn, fp, params: TverskyParams):
    # (a*fp + b*fn) / tp for Python ints, int64 arrays or cell probabilities;
    # int64 converts to float64 with the same rounding as int, so both give
    # the same bits.
    _require_type(params, TverskyParams, "params")
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
    _require_type(counts, ConfusionCounts, "counts")
    predicted = counts.tp + counts.fp
    if predicted == 0:
        raise DegenerateSampleError("no positive predictions; precision is undefined")
    return counts.tp / predicted


def recall(counts: ConfusionCounts) -> float:
    """tp / (tp + fn); errors when there are no positive labels."""
    _require_type(counts, ConfusionCounts, "counts")
    labeled = counts.tp + counts.fn
    if labeled == 0:
        raise DegenerateSampleError("no positive labels; recall is undefined")
    return counts.tp / labeled


def summarize(counts: ConfusionCounts, params: TverskyParams) -> SummaryStats:
    """Exact summary statistics for the variance formula, the squared-weight
    index computed with weights (a^2, b^2) directly. The variance of counts
    does not go through this: 1/t - 1 from an index near 1 cancels digits.
    """
    tversky = tversky_index(counts, params)  # checks both arguments
    return SummaryStats(
        n=counts.n,
        tp_rate=counts.tp_rate,
        tversky=tversky,
        tversky_sq=tversky_index(counts, params.squared()),
    )


# ---------------------------------------------------------------------------
# asymptotic variance and confidence intervals
# ---------------------------------------------------------------------------

# Slack for the summary-consistency checks below. Each r = 1/t - 1 carries
# rounding error on the scale of 1/t, not of r, so the slack is relative to
# the reciprocals; summaries of exact counts then pass however close t is to 1.
_CONSISTENCY_RTOL = 1e-9


def _index_and_variance(data: object, params: TverskyParams) -> tuple[float, float]:
    _require_type(params, TverskyParams, "params")
    if isinstance(data, ConfusionCounts):
        cells = _positive_counts(data)
        return _tversky_and_variance(*cells, data.tp / _require_float_range(data.n), params)
    if not isinstance(data, SummaryStats):
        raise InvalidParameterError(
            f"expected ConfusionCounts or SummaryStats, got {type(data).__name__}"
        )
    r1, r2 = _consistent_ratios(data, params)
    return data.tversky, _variance_kernel(r1, r2, data.tversky, data.tp_rate)


def _tversky_and_variance(tp, fn, fp, tp_rate, params: TverskyParams):
    """Index and variance from (tp, fn, fp) with tp > 0, as Python ints, cell
    probabilities or int64 arrays, and tp_rate = tp/n."""
    r1 = _error_ratio(tp, fn, fp, params)
    t = 1.0 / (1.0 + r1)
    return t, _variance_kernel(r1, _error_ratio(tp, fn, fp, params.squared()), t, tp_rate)


def asymptotic_variance(data: ConfusionCounts | SummaryStats, params: TverskyParams) -> float:
    """Per-observation variance of the index estimate.

    variance = (r2 + r1^2) * t^4 / tp_rate with t the index, r1 = 1/t - 1
    and r2 = 1/t2 - 1 for the squared-weight index t2. Counts give r1 and
    r2 as weighted error ratios, without the cancellation of 1/t - 1.

    Summary inputs are checked against every bound the counts imply. The
    error-odds ratio (1/t2 - 1) / (1/t - 1) is a weighted mean of the two
    weights, so it lies between min and max(fp_weight, fn_weight). And
    1/t - 1 = (a*fp + b*fn)/tp can be at most max_weight * (1/tp_rate - 1).
    """
    return _index_and_variance(data, params)[1]


def _variance_kernel(r1, r2, t, tp_rate):
    """(r2 + r1^2) * t^4 / tp_rate with r1 = 1/t - 1 and r2 = 1/t2 - 1, for
    floats or float64 arrays. A float's t ** 4.0 is libm pow, and so is
    np.float_power on arrays: the same bits; ``**`` and np.power on arrays
    are not. Where t^4 falls below the smallest normal double (t under
    about 1.2e-77) but r2 + r1^2 is finite, t^2 is folded into each term
    instead, so the variance does not underflow to 0. An index near 0 makes
    r2 or r1^2 overflow: an inf or nan variance (an array's max) raises."""
    scalar = isinstance(t, float)
    if not scalar:
        import numpy as np  # array callers (the simulation) have loaded it already
    t4 = t**4.0 if scalar else np.float_power(t, 4.0)
    numerator = r2 + r1 * r1
    tiny = (t4 < sys.float_info.min) & (numerator < math.inf)
    rt = r1 * t
    scaled = (r2 * t * t + rt * rt) * (t * t) / tp_rate
    variance = numerator * t4 / tp_rate
    variance = (scaled if tiny else variance) if scalar else np.where(tiny, scaled, variance)
    largest = variance if scalar else float(variance.max(initial=0.0))
    if not largest < math.inf:
        raise InvalidParameterError(
            f"the variance is {largest!r}: tversky or tversky_sq is too "
            "close to 0 for floating point"
        )
    return variance


def _consistent_ratios(stats: SummaryStats, params: TverskyParams) -> tuple[float, float]:
    """(1/tversky - 1, 1/tversky_sq - 1) of a summary, which must have true
    positives and agree with every bound that counts with these weights imply."""
    tversky, tversky_sq, tp_rate = stats.tversky, stats.tversky_sq, stats.tp_rate
    if tp_rate <= 0.0:
        raise DegenerateSampleError(
            "tp_rate is zero; the variance formula divides by the true-positive rate"
        )
    u1, u2 = 1.0 / tversky, 1.0 / tversky_sq
    r1, r2 = u1 - 1.0, u2 - 1.0
    lo, hi = min(params.fp_weight, params.fn_weight), params.max_weight
    tol = _CONSISTENCY_RTOL
    if r1 > 0.0 and (
        r2 - hi * r1 > tol * (u2 + hi * u1) or lo * r1 - r2 > tol * (u2 + lo * u1)
    ):
        raise InvalidParameterError(
            "inconsistent summary statistics: (1/tversky_sq - 1)/(1/tversky - 1) "
            f"= {r2 / r1:.6g} lies outside the weight range [{lo:.6g}, {hi:.6g}]"
        )
    rate_bound = hi * (1.0 / tp_rate - 1.0)
    if r1 - rate_bound > tol * (u1 + hi / tp_rate):
        raise InvalidParameterError(
            f"inconsistent summary statistics: 1/tversky - 1 = {r1:.6g} exceeds "
            f"max weight * (1/tp_rate - 1) = {rate_bound:.6g}"
        )
    # tversky = 1 means an error-free sample, so tversky_sq must be 1 too.
    if r1 == 0.0 and r2 > 0.0:
        raise InvalidParameterError(
            f"inconsistent summary statistics: tversky is 1 but tversky_sq is {tversky_sq!r}"
        )
    return r1, r2


def _critical_value(level: float) -> float:
    """z = normal_quantile((1+level)/2) for a level in (0, 1). Where (1+level)/2
    rounds to 1 (level 1 - 2**-53), z comes from the lower tail instead; only
    there, as the lower tail gives other bits at most levels."""
    p = 0.5 * (1.0 + level)
    return normal_quantile(p) if p < 1.0 else -normal_quantile(0.5 * (1.0 - level))


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
    estimate, variance = _index_and_variance(data, params)
    se = math.sqrt(variance / data.n)
    half_width = _critical_value(level) * se
    return EstimateReport(
        estimate=estimate,
        variance=variance,
        se=se,
        half_width=half_width,
        ci_lower=max(0.0, estimate - half_width),
        ci_upper=min(1.0, estimate + half_width),
        level=level,
        n=data.n,
        at_boundary=(variance == 0.0),
    )


# ---------------------------------------------------------------------------
# standard normal CDF and quantile
# ---------------------------------------------------------------------------


def _phi(x: float) -> float:
    """Standard normal CDF of a float, infinite ones included."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate to machine precision."""
    return _phi(_require_finite(x, "x"))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by Wichura's AS241 (Appl. Statist. 1988),
    computed by CPython's C module _statistics. statistics.NormalDist().inv_cdf(p)
    is that same call, so the bits are the standard library's, without the
    ~3.7 ms import of statistics (which loads fractions and decimal). Where
    _statistics is missing, as outside CPython, NormalDist gives the value.

    Against mpmath at 360 digits it stays within 2.8 * eps * |x| on the
    999 levels k/1000, near p = 0.5, and in the tails down to p = 1e-300.
    """
    p = _require_open_unit(p, "p")
    try:
        from _statistics import _normal_dist_inv_cdf
    except ImportError:
        from statistics import NormalDist

        return NormalDist().inv_cdf(p)
    return _normal_dist_inv_cdf(p, 0.0, 1.0)
