import math
import random
import sys
from decimal import Decimal
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy.stats import norm

from tverskyci import (
    ConfusionCounts,
    DegenerateSampleError,
    InvalidParameterError,
    SummaryStats,
    TverskyParams,
    asymptotic_variance,
    confidence_interval,
    fbeta_to_tversky,
    normal_cdf,
    normal_quantile,
    histogram_summary,
    ingest,
    precision,
    recall,
    required_events,
    required_total,
    summarize,
    tversky_index,
    variance_bound,
    weighted_error_ratio,
)
from tverskyci.estimation import _quote
from tverskyci.simulation import ScoreModel, SimulationConfig

F05 = TverskyParams(0.8, 0.2)
F1 = TverskyParams(0.5, 0.5)

# Summary stats of the worked retail example: n, tp_rate, index, squared-weight index.
RETAIL_STATS = SummaryStats(535, 0.535, 0.861, 0.900)

# Frozen from direct evaluation of the variance formula on RETAIL_STATS:
# (1/0.9 - 1 + (1/0.861 - 1)^2) * 0.861^4 / 0.535
RETAIL_VARIANCE = 0.14090641586915892
RETAIL_SE = 0.016228877911307057


# ---------------------------------------------------------------------------
# point estimates
# ---------------------------------------------------------------------------


def test_tversky_perfect_predictor():
    assert tversky_index(ConfusionCounts(50, 0, 0, 50), F05) == 1.0


def test_tversky_hand_value():
    # 40 / (40 + 0.5*10 + 0.5*10) = 0.8
    assert tversky_index(ConfusionCounts(40, 10, 10, 40), F1) == pytest.approx(0.8, rel=1e-15)


def test_tversky_matches_harmonic_mean():
    counts = ConfusionCounts(30, 20, 10, 40)
    prec, rec = precision(counts), recall(counts)
    assert prec == 0.75
    assert rec == 0.6
    harmonic = 2.0 / (1.0 / prec + 1.0 / rec)
    assert tversky_index(counts, F1) == pytest.approx(harmonic, rel=1e-12)
    assert tversky_index(counts, F1) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_tversky_rejects_no_true_positives():
    with pytest.raises(DegenerateSampleError):
        tversky_index(ConfusionCounts(0, 5, 5, 90), F1)


def test_precision_recall_zero_when_no_hits():
    counts = ConfusionCounts(0, 5, 5, 90)
    assert precision(counts) == 0.0
    assert recall(counts) == 0.0


def test_precision_undefined_without_positive_predictions():
    with pytest.raises(DegenerateSampleError):
        precision(ConfusionCounts(0, 5, 0, 95))


def test_recall_undefined_without_positive_labels():
    with pytest.raises(DegenerateSampleError):
        recall(ConfusionCounts(0, 0, 5, 95))


def test_counts_validation():
    with pytest.raises(InvalidParameterError):
        ConfusionCounts(-1, 0, 0, 10)
    with pytest.raises(InvalidParameterError):
        ConfusionCounts(0, 0, 0, 0)
    with pytest.raises(InvalidParameterError):
        ConfusionCounts(1.5, 0, 0, 10)  # type: ignore[arg-type]


def test_prediction_rate_and_scaling_by_zero():
    counts = ConfusionCounts(30, 20, 10, 40)
    assert counts.prediction_rate == 0.4
    with pytest.raises(InvalidParameterError, match="^k must be >= 1, got 0$"):
        counts.scaled(0)


def test_scaling_by_one_gives_the_same_counts():
    counts = ConfusionCounts(30, 20, 10, 40)
    assert counts.scaled(1) == counts


@pytest.mark.parametrize("length", [63, 64])
def test_a_value_up_to_the_quote_limit_is_quoted_whole(length):
    assert _quote("x" * length) == repr("x" * length)


def test_a_value_one_past_the_quote_limit_is_cut():
    assert _quote("x" * 65) == f"{'x' * 64!r}... (65 characters)"


def test_a_value_that_cannot_be_printed_is_quoted_by_its_type():
    class B:
        def __repr__(self):
            raise RuntimeError("no repr")

    assert _quote(B()) == "a B that cannot be printed"
    assert _quote([B()]) == "a list that cannot be printed"


def test_counts_accept_numpy_integers():
    cells = np.array([30, 20, 10, 40])
    counts = ConfusionCounts(cells[0], cells[1], cells[2], cells[3])
    assert counts == ConfusionCounts(30, 20, 10, 40)
    assert isinstance(counts.tp, int)


def test_params_validation():
    for a, b in ((0.0, 0.2), (-0.1, 0.2), (math.nan, 0.2), (0.8, math.inf)):
        with pytest.raises(InvalidParameterError):
            TverskyParams(a, b)


@pytest.mark.parametrize("a,b", [(1e200, 1e200), (1e160, 1e-160), (1e300, 1e223), (1.0, 2e154)])
def test_squared_weight_overflow_is_parameter_error(a, b):
    with pytest.raises(InvalidParameterError, match="overflow when squared"):
        TverskyParams(a, b).squared()
    with pytest.raises(InvalidParameterError, match="overflow when squared"):
        confidence_interval(ConfusionCounts(1, 1, 1, 1), TverskyParams(a, b))


def test_squared_weight_underflow_names_the_weights():
    message = r"^weights \(1e-200, 1\) underflow when squared$"
    with pytest.raises(InvalidParameterError, match=message):
        TverskyParams(1e-200, 1.0).squared()
    # F-beta's weights come from beta squared, so a beta whose square leaves
    # the float range is named instead of the weight it zeroes.
    for beta, way in ((1e155, "overflows"), (1e200, "overflows"), (1e-170, "underflows")):
        with pytest.raises(InvalidParameterError) as raised:
            fbeta_to_tversky(beta)
        assert str(raised.value) == f"beta {beta:g} {way} when squared"


@pytest.mark.parametrize(
    "beta,expected",
    [(0.5, (0.8, 0.2)), (1.0, (0.5, 0.5)), (2.0, (0.2, 0.8))],
)
def test_fbeta_weight_mapping(beta, expected):
    params = fbeta_to_tversky(beta)
    assert (params.fp_weight, params.fn_weight) == expected


def test_fbeta_weights_sum_to_one():
    rng = np.random.default_rng(11)
    for beta in 10.0 ** rng.uniform(-2, 2, size=200):
        params = fbeta_to_tversky(float(beta))
        assert abs(params.fp_weight + params.fn_weight - 1.0) <= 2**-50
        assert 0.0 < params.fp_weight < 1.0
        assert 0.0 < params.fn_weight < 1.0


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 10**12),
    st.integers(0, 10**12),
    st.integers(0, 10**12),
    st.integers(0, 10**12),
    st.floats(1e-2, 1e2),
)
def test_fbeta_weights_give_the_f_beta_score(tp, fn, fp, tn, beta):
    counts = ConfusionCounts(tp, fn, fp, tn)
    f_beta = (1 + beta**2) / (1 / precision(counts) + beta**2 / recall(counts))
    assert tversky_index(counts, fbeta_to_tversky(beta)) == pytest.approx(f_beta, rel=1e-14)


def test_fbeta_rejects_bad_beta():
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            fbeta_to_tversky(beta)


# ---------------------------------------------------------------------------
# asymptotic variance
# ---------------------------------------------------------------------------


def test_variance_retail_example():
    assert asymptotic_variance(RETAIL_STATS, F05) == pytest.approx(RETAIL_VARIANCE, rel=1e-12)
    se = math.sqrt(asymptotic_variance(RETAIL_STATS, F05) / RETAIL_STATS.n)
    assert se == pytest.approx(RETAIL_SE, rel=1e-12)


def test_variance_zero_for_perfect_predictor():
    stats = SummaryStats(100, 0.5, 1.0, 1.0)
    assert asymptotic_variance(stats, F05) == 0.0
    assert asymptotic_variance(ConfusionCounts(50, 0, 0, 50), F05) == 0.0


def test_variance_counts_path_delegates_to_exact_summary():
    counts = ConfusionCounts(30, 20, 10, 40)
    assert asymptotic_variance(counts, F1) == asymptotic_variance(summarize(counts, F1), F1)


def test_variance_requires_positive_tp_rate():
    with pytest.raises(DegenerateSampleError):
        asymptotic_variance(SummaryStats(10, 0.0, 0.5, 0.5), F1)


def test_variance_rejects_inconsistent_summary():
    # (1/0.8 - 1) / (1/0.9 - 1) = 2.25, impossible for weights capped at 0.8
    with pytest.raises(InvalidParameterError):
        asymptotic_variance(SummaryStats(100, 0.5, 0.9, 0.8), F05)
    # an error-free index forces the squared-weight index to 1 as well
    with pytest.raises(InvalidParameterError):
        asymptotic_variance(SummaryStats(100, 0.5, 1.0, 0.9), F05)


def test_variance_rejects_wrong_type():
    with pytest.raises(InvalidParameterError):
        asymptotic_variance((30, 20, 10, 40), F1)  # type: ignore[arg-type]


def test_summary_stats_validation():
    with pytest.raises(InvalidParameterError):
        SummaryStats(0, 0.5, 0.8, 0.9)
    with pytest.raises(InvalidParameterError):
        SummaryStats(10, 1.5, 0.8, 0.9)
    with pytest.raises(InvalidParameterError):
        SummaryStats(10, 0.5, 0.0, 0.9)
    with pytest.raises(InvalidParameterError):
        SummaryStats(10, 0.5, 0.8, 1.1)


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------


def test_ci_retail_example():
    report = confidence_interval(RETAIL_STATS, F05, 0.95)
    assert report.estimate == 0.861
    assert report.se == pytest.approx(RETAIL_SE, rel=1e-12)
    # 0.861 +/- 0.032 at the printed precision
    assert report.half_width == pytest.approx(0.0318080, abs=5e-7)
    assert report.ci_lower == pytest.approx(0.861 - report.half_width, rel=1e-15)
    assert report.ci_upper == pytest.approx(0.861 + report.half_width, rel=1e-15)
    assert not report.at_boundary


def test_ci_zero_width_at_boundary():
    report = confidence_interval(ConfusionCounts(50, 0, 0, 50), F05, 0.95)
    assert (report.ci_lower, report.ci_upper) == (1.0, 1.0)
    assert report.variance == 0.0
    assert report.at_boundary


def test_ci_higher_level_nests_strictly():
    low = confidence_interval(RETAIL_STATS, F05, 0.95)
    high = confidence_interval(RETAIL_STATS, F05, 0.99)
    assert high.ci_lower < low.ci_lower
    assert high.ci_upper > low.ci_upper


def test_ci_invariants_random_counts():
    rng = np.random.default_rng(5)
    for _ in range(200):
        counts = ConfusionCounts(*(int(v) for v in rng.integers([1, 0, 0, 0], 200, size=4)))
        params = TverskyParams(*(10.0 ** rng.uniform(-1, 0.5, size=2)))
        level = float(rng.uniform(0.5, 0.999))
        report = confidence_interval(counts, params, level)
        assert 0.0 <= report.ci_lower <= report.estimate <= report.ci_upper <= 1.0
        assert report.variance >= 0.0
        z = normal_quantile(0.5 * (1.0 + level))
        assert report.half_width == pytest.approx(z * report.se, rel=1e-14)


def test_the_largest_level_below_1_takes_z_from_the_lower_tail():
    # At level 1 - 2**-53, (1 + level)/2 rounds to 1, where no quantile exists;
    # z = -normal_quantile((1 - level)/2) = -normal_quantile(2**-54) does.
    report = confidence_interval(RETAIL_STATS, F05, 1.0 - 2**-53)
    assert report.half_width / report.se == pytest.approx(8.292361075813595, rel=4e-16)
    assert report.level == 0.9999999999999999


def test_ci_level_validation():
    for level in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidParameterError):
            confidence_interval(RETAIL_STATS, F05, level)


# ---------------------------------------------------------------------------
# algebraic properties
# ---------------------------------------------------------------------------


def test_scaling_counts_leaves_index_and_variance_fixed():
    rng = np.random.default_rng(17)
    for _ in range(200):
        counts = ConfusionCounts(*(int(v) for v in rng.integers([1, 0, 0, 0], 300, size=4)))
        params = TverskyParams(*(10.0 ** rng.uniform(-1, 0.5, size=2)))
        k = int(rng.integers(2, 9))
        scaled = counts.scaled(k)
        assert tversky_index(scaled, params) == pytest.approx(
            tversky_index(counts, params), rel=1e-12
        )
        assert asymptotic_variance(scaled, params) == pytest.approx(
            asymptotic_variance(counts, params), rel=1e-12
        )
        se = math.sqrt(asymptotic_variance(counts, params) / counts.n)
        se_scaled = math.sqrt(asymptotic_variance(scaled, params) / scaled.n)
        assert se_scaled == pytest.approx(se / math.sqrt(k), rel=1e-12)


def test_equal_weight_squaring_identity():
    # error ratio at weights (a^2, a^2) is a times the ratio at (a, a)
    counts = ConfusionCounts(37, 11, 5, 47)
    for a in (0.3, 0.5, 1.0, 1.7):
        lhs = weighted_error_ratio(counts, TverskyParams(a * a, a * a))
        rhs = a * weighted_error_ratio(counts, TverskyParams(a, a))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_squared_weight_ratio_bounded_by_max_weight():
    rng = np.random.default_rng(23)
    for _ in range(500):
        counts = ConfusionCounts(*(int(v) for v in rng.integers([1, 0, 0, 0], 300, size=4)))
        if counts.fn + counts.fp == 0:
            continue
        params = TverskyParams(*(10.0 ** rng.uniform(-1, 0.5, size=2)))
        ratio = weighted_error_ratio(counts, params.squared()) / weighted_error_ratio(
            counts, params
        )
        assert ratio <= params.max_weight * (1.0 + 1e-12)


def test_weighted_error_ratio_avoids_reciprocal_cancellation():
    # tp large enough that 1/index - 1 would lose digits to cancellation
    counts = ConfusionCounts(10**6, 1, 1, 0)
    ratio = weighted_error_ratio(counts, F05)
    assert ratio == (0.8 + 0.2) / 1e6


# ---------------------------------------------------------------------------
# standard normal quantile and CDF
# ---------------------------------------------------------------------------


def test_quantile_center_and_reference_point():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)


@pytest.mark.parametrize("p", [0.01, 0.1, 0.3])
def test_quantile_symmetry(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-12)


def test_quantile_accuracy_against_scipy():
    grid = np.concatenate(
        [
            np.logspace(-10, -1, 250),
            np.linspace(0.1, 0.9, 250),
            1.0 - np.logspace(-10, -1, 250),
            [1e-10, 0.5, 1.0 - 1e-10],
        ]
    )
    worst = max(abs(normal_quantile(float(p)) - float(norm.ppf(p))) for p in grid)
    assert worst <= 1e-9


def _mp_quantile(p, start):
    # Newton's method on ncdf(x) = p from start, to 40 digits. At 60 working
    # digits this gives the same worst errors below as 360 digits, 10x faster.
    with mp.workdps(60):
        x, target = mpf(start), mpf(p)
        while True:
            step = (mp.ncdf(x) - target) / mp.npdf(x)
            x -= step
            if abs(step) <= abs(x) * mpf(10) ** -40:
                return x


def test_quantile_within_four_eps_relative_of_mpmath():
    rng = random.Random(0)
    levels = [k / 1000 for k in range(1, 1000) if k != 500]
    central = [0.5 + rng.choice((-1, 1)) * 10 ** rng.uniform(-16, -1) for _ in range(2000)]
    tails = [10 ** -rng.uniform(1, 300) for _ in range(300)]
    for p in levels + central + tails:
        got = normal_quantile(p)
        exact = _mp_quantile(p, got)
        assert abs(mpf(got) - exact) <= 4 * sys.float_info.epsilon * abs(exact), p


def test_quantile_has_the_bits_of_the_standard_library():
    # normal_quantile calls the C function that NormalDist().inv_cdf calls.
    inv_cdf = NormalDist().inv_cdf
    rng = random.Random(22)
    levels = [k / 1000 for k in range(1, 1000)]
    uniform = [p for p in (rng.random() for _ in range(10_000)) if p > 0.0]
    tails = [10 ** -rng.uniform(1, 300) for _ in range(1000)]
    central = [0.5 + rng.choice((-1, 1)) * 10 ** -rng.uniform(1, 16) for _ in range(1000)]
    for p in levels + uniform + tails + central:
        assert normal_quantile(p).hex() == inv_cdf(p).hex(), p


def test_quantile_domain_errors():
    for p in (0.0, 1.0, -0.1, 1.1, math.nan, "0.5"):
        with pytest.raises(InvalidParameterError):
            normal_quantile(p)  # type: ignore[arg-type]


def test_cdf_matches_scipy():
    xs = np.linspace(-8.0, 8.0, 801)
    worst = max(abs(normal_cdf(float(x)) - float(norm.cdf(x))) for x in xs)
    assert worst <= 1e-14


def test_cdf_rejects_non_finite():
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            normal_cdf(x)


def test_variance_rejects_ratio_below_min_weight():
    # (1/0.9090909 - 1) / (1/0.5 - 1) = 0.1, below the smaller weight 0.2
    with pytest.raises(InvalidParameterError, match="weight range"):
        asymptotic_variance(SummaryStats(100, 0.3, 0.5, 0.9090909), F05)


def test_variance_rejects_index_below_rate_bound():
    # 1/t - 1 = 1 but max_weight * (1/tp_rate - 1) = 1/99
    with pytest.raises(InvalidParameterError, match="tp_rate"):
        asymptotic_variance(SummaryStats(100, 0.99, 0.5, 0.6), TverskyParams(0.5, 1.0))


# Each summary check allows a slack of 1e-9 times the reciprocals it is
# computed from. For a fraction f, each entry gives the (params, tp_rate,
# tversky, tversky_sq) of a summary that exceeds its bound by f times that
# slack; u = 1/t and r = u - 1 as in _consistent_ratios.
_TOL = 1e-9
_AT_SLACK = {
    # r2 - 2 * r1 = f * tol * (u2 + 2 * u1), with u1 = 2 and r1 = 1
    "above the max weight": lambda f: (
        TverskyParams(0.5, 2.0), 0.25, 0.5, (1 - f * _TOL) / (3 + 4 * f * _TOL)
    ),
    # 0.5 * r1 - r2 = f * tol * (u2 + 0.5 * u1), with u1 = 2 and r1 = 1
    "below the min weight": lambda f: (
        TverskyParams(0.5, 2.0), 0.25, 0.5, (1 + f * _TOL) / (1.5 - f * _TOL)
    ),
    # r1 - (1/tp_rate - 1) = f * tol * (u1 + 1/tp_rate), with tp_rate = 0.5
    "past the rate bound": lambda f: (
        TverskyParams(1.0, 1.0), 0.5, *[(1 - f * _TOL) / (2 + 2 * f * _TOL)] * 2
    ),
}


@pytest.mark.parametrize("bound", _AT_SLACK)
def test_a_summary_within_the_slack_of_a_bound_passes(bound):
    params, tp_rate, tversky, tversky_sq = _AT_SLACK[bound](0.99)
    assert asymptotic_variance(SummaryStats(100, tp_rate, tversky, tversky_sq), params) > 0.0


@pytest.mark.parametrize("bound", _AT_SLACK)
def test_a_summary_just_past_the_slack_of_a_bound_is_rejected(bound):
    params, tp_rate, tversky, tversky_sq = _AT_SLACK[bound](1.01)
    with pytest.raises(InvalidParameterError, match="^inconsistent summary statistics: "):
        asymptotic_variance(SummaryStats(100, tp_rate, tversky, tversky_sq), params)


def test_the_ratio_of_an_inconsistent_summary_is_reported():
    # (1/0.7 - 1) / (1/0.8 - 1) = 0.428571 / 0.25
    message = (
        r"^inconsistent summary statistics: \(1/tversky_sq - 1\)/\(1/tversky - 1\) "
        r"= 1\.71429 lies outside the weight range \[0\.2, 0\.8\]$"
    )
    with pytest.raises(InvalidParameterError, match=message):
        asymptotic_variance(SummaryStats(100, 0.5, 0.8, 0.7), F05)


@pytest.mark.parametrize(
    "tversky, tversky_sq, variance", [(0.5, 5e-324, "inf"), (5e-324, 0.5, "nan")]
)
def test_a_summary_index_at_the_float_floor_fails_on_its_variance(tversky, tversky_sq, variance):
    # 1/5e-324 is inf, and so is each bound of the summary checks, which an
    # inf does not exceed; the variance kernel is the one to reject it.
    stats = SummaryStats(100, 0.25, tversky, tversky_sq)
    with pytest.raises(InvalidParameterError, match=f"^the variance is {variance}: "):
        asymptotic_variance(stats, TverskyParams(0.5, 2.0))


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 10**15),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)
def test_exact_counts_pass_every_consistency_bound(tp, fn, fp, tn, a, b):
    # Bounds sit exactly on the data when only one error kind occurs or tn
    # is 0; a huge tp puts t within rounding of 1.
    assert asymptotic_variance(ConfusionCounts(tp, fn, fp, tn), TverskyParams(a, b)) >= 0.0


def _exact_variance(tp, fn, fp, tn, a, b):
    a, b = Fraction(a), Fraction(b)
    r1 = (a * fp + b * fn) / tp
    r2 = (a * a * fp + b * b * fn) / tp
    return (r2 + r1 * r1) / (1 + r1) ** 4 / Fraction(tp, tp + fn + fp + tn)


_errors = st.integers(0, 50) | st.integers(0, 10**12)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 10**12),
    _errors,
    _errors,
    st.integers(0, 10**12),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)
# t rounds to 1.0: recovering 1/t - 1 from the index once gave variance 0
@example(47, 0, 607719886100, 29, 5.13008324775293e-47, 1.133866580166877e53)
def test_counts_variance_matches_exact_arithmetic(tp, fn, fp, tn, a, b):
    variance = asymptotic_variance(ConfusionCounts(tp, fn, fp, tn), TverskyParams(a, b))
    exact = _exact_variance(tp, fn, fp, tn, a, b)
    assert abs(Fraction(variance) - exact) <= Fraction(4e-15) * exact


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 10**12),
    _errors,
    _errors,
    st.integers(0, 10**12),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)
# max_weight one ulp below 1: V(m) once lost its maximizer to cancellation
@example(1, 1, 0, 0, 1e-3, math.nextafter(1.0, 0.0))
def test_counts_variance_lies_between_zero_and_the_planning_bound(tp, fn, fp, tn, a, b):
    counts, params = ConfusionCounts(tp, fn, fp, tn), TverskyParams(a, b)
    variance = asymptotic_variance(counts, params)
    bound = variance_bound(params).value / (params.fn_weight * counts.label_rate)
    assert 0.0 <= variance <= bound * (1 + 1e-14)


# ---------------------------------------------------------------------------
# tiny indices and numpy scalars
# ---------------------------------------------------------------------------


def test_variance_of_an_index_whose_fourth_power_underflows():
    # t = 1e-100, t2 = 1e-200: (1e200 + 1e200) * t^4 / 0.5 = 4e-200, although
    # t^4 itself is below the smallest double.
    report = confidence_interval(ConfusionCounts(1, 0, 1, 0), TverskyParams(1e100, 1.0))
    assert report.variance == pytest.approx(4e-200, rel=1e-9, abs=0.0)
    assert not report.at_boundary


@pytest.mark.parametrize("exponent", [70, 76, 78, 80, 100, 150])
def test_tiny_index_variance_is_accurate(exponent):
    # tversky = 1/(1 + 10^k) and tversky_sq = 1/(1 + 10^2k); the exact
    # variance is (10^2k + 10^2k) * tversky^4 / tp_rate.
    from fractions import Fraction

    counts = ConfusionCounts(1, 0, 1, 0)
    k = Fraction(10) ** exponent
    t, t2 = 1 / (1 + k), 1 / (1 + k * k)
    exact = ((1 / t2 - 1) + (1 / t - 1) ** 2) * t**4 * 2
    variance = asymptotic_variance(counts, TverskyParams(float(10**exponent), 1.0))
    assert variance == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_validators_accept_numpy_scalars():
    counts = ConfusionCounts(*(np.int64(x) for x in (300, 60, 40, 600)))
    assert counts == ConfusionCounts(300, 60, 40, 600)
    assert type(counts.tp) is int
    for kind in (np.float64, np.float32):
        params = TverskyParams(kind(0.5), kind(0.5))
        assert params == TverskyParams(float(kind(0.5)), float(kind(0.5)))
        got = confidence_interval(counts, params, kind(0.9))
        assert got == confidence_interval(counts, params, float(kind(0.9)))
    assert normal_quantile(np.float64(0.975)).hex() == normal_quantile(0.975).hex()
    assert normal_quantile(np.float32(0.5)) == 0.0


def test_validators_still_reject_bools():
    with pytest.raises(InvalidParameterError, match="tp must be an integer"):
        ConfusionCounts(True, 1, 1, 1)
    with pytest.raises(InvalidParameterError, match="p must be a number"):
        normal_quantile(True)
    with pytest.raises(InvalidParameterError, match="must be a number"):
        TverskyParams("0.5", 0.5)


def test_validators_accept_other_integral_and_real_types():
    # numbers.Integral and numbers.Real, which the validators load only for
    # a value that is neither an int nor a float.
    counts = ConfusionCounts(np.int8(3), np.uint8(1), np.int32(1), np.uint64(4))
    assert counts == ConfusionCounts(3, 1, 1, 4)
    assert all(type(cell) is int for cell in counts)
    assert TverskyParams(Fraction(1, 2), np.float16(0.25)) == TverskyParams(0.5, 0.25)
    assert fbeta_to_tversky(np.int64(2)) == fbeta_to_tversky(2.0)
    assert normal_quantile(Fraction(39, 40)).hex() == normal_quantile(0.975).hex()


@pytest.mark.parametrize("bad", [Decimal(3), 3 + 0j, Fraction(3), "3", True], ids=repr)
def test_counts_reject_what_is_not_an_integer(bad):
    with pytest.raises(InvalidParameterError, match="^tp must be an integer, got "):
        ConfusionCounts(bad, 1, 1, 1)


# Every public numeric argument, called with one bad value, and the message
# it must raise. numbers.Real minus bool is the one accepted type.
_NUMBER = "must be a number"
_NUMERIC_ARGUMENTS = {
    "TverskyParams.fp_weight": (lambda x: TverskyParams(x, 0.5), _NUMBER),
    "TverskyParams.fn_weight": (lambda x: TverskyParams(0.5, x), _NUMBER),
    "fbeta_to_tversky": (fbeta_to_tversky, _NUMBER),
    "SummaryStats.tp_rate": (lambda x: SummaryStats(10, x, 0.5, 0.5), _NUMBER),
    "SummaryStats.tversky": (lambda x: SummaryStats(10, 0.5, x, 0.5), _NUMBER),
    "SummaryStats.tversky_sq": (lambda x: SummaryStats(10, 0.5, 0.5, x), _NUMBER),
    "ScoreModel.prevalence": (lambda x: ScoreModel(x, 2.5, 1.0), _NUMBER),
    "ScoreModel.shift": (lambda x: ScoreModel(0.5, x, 1.0), _NUMBER),
    "ScoreModel.threshold": (lambda x: ScoreModel(0.5, 2.5, x), _NUMBER),
    "SimulationConfig.level": (
        lambda x: SimulationConfig(ScoreModel(0.5, 2.5, 1.0), 10, 10, F1, level=x),
        _NUMBER,
    ),
    "confidence_interval.level": (
        lambda x: confidence_interval(ConfusionCounts(3, 1, 1, 5), F1, level=x),
        _NUMBER,
    ),
    "normal_cdf": (normal_cdf, _NUMBER),
    "normal_quantile": (normal_quantile, _NUMBER),
    "required_events.delta": (lambda x: required_events(x, F1), _NUMBER),
    "required_total.prevalence": (lambda x: required_total(0.01, F1, x), _NUMBER),
    "ingest.threshold": (lambda x: ingest("records.csv", threshold=x), _NUMBER),
    "histogram_summary": (lambda x: histogram_summary(["a", x]), "estimates must be numbers"),
}


# Neither a Decimal nor a complex is a numbers.Real, though float() takes a Decimal.
@pytest.mark.parametrize("bad", [True, "0.5", None, Decimal("0.5"), 0.5 + 0j], ids=repr)
@pytest.mark.parametrize(
    "call, message", _NUMERIC_ARGUMENTS.values(), ids=list(_NUMERIC_ARGUMENTS)
)
def test_numeric_arguments_raise_typed_errors(call, message, bad):
    with pytest.raises(InvalidParameterError, match=message):
        call(bad)


# An int past the float range is an infinite value: each helper gives the
# range message it gives for inf, not float()'s bare OverflowError.
_HUGE = 10**400


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TverskyParams(_HUGE, 1.0), "fp_weight must be finite and > 0, got inf"),
        (lambda: TverskyParams(1.0, -_HUGE), "fn_weight must be finite and > 0, got -inf"),
        (lambda: normal_cdf(-_HUGE), "x must be finite, got -inf"),
        (lambda: normal_quantile(Fraction(_HUGE)), r"p must lie in \(0, 1\), got inf"),
        (lambda: SummaryStats(10, -_HUGE, 0.5, 0.5), r"tp_rate must lie in \[0, 1\], got -inf$"),
        (lambda: required_events(_HUGE, F1), "delta must be finite and > 0, got inf"),
    ],
    ids=["fp_weight", "fn_weight", "normal_cdf", "normal_quantile", "tp_rate", "delta"],
)
def test_ints_past_the_float_range_raise_the_range_error(call, message):
    with pytest.raises(InvalidParameterError, match=message):
        call()
