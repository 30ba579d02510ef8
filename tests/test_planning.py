import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tverskyci import (
    ConfusionCounts,
    InvalidParameterError,
    TverskyParams,
    asymptotic_variance,
    bound_table,
    fbeta_to_tversky,
    planning_bound,
    required_events,
    required_total,
    variance_bound,
)

F05 = TverskyParams(0.8, 0.2)

# Tabulated bound values at the resolution plans consume.
TABLE = {0.5: 0.1549, 0.6: 0.1695, 0.7: 0.1861, 0.8: 0.2050, 0.9: 0.2262}


def _profile(tau, m):
    return tau * (1.0 - tau) * (1.0 - (1.0 - m) * tau) ** 2


# ---------------------------------------------------------------------------
# bound values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,expected", sorted(TABLE.items()))
def test_bound_reproduces_table(m, expected):
    assert variance_bound(TverskyParams(m, m)).value == pytest.approx(expected, abs=5e-5)


def test_bound_table_rows():
    assert bound_table() == tuple(sorted(TABLE.items()))


def test_bound_increases_with_max_weight():
    values = [variance_bound(TverskyParams(m, m)).value for m in sorted(TABLE)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_bound_depends_only_on_max_weight():
    assert variance_bound(F05).value == variance_bound(TverskyParams(0.8, 0.8)).value
    assert variance_bound(F05).value == variance_bound(TverskyParams(0.1, 0.8)).value


def test_bound_at_weight_one_is_quarter():
    # Limit case: the profile degenerates to tau*(1-tau); grid oracle below.
    bound = variance_bound(TverskyParams(1.0, 1.0))
    assert bound.value == 0.25
    assert bound.maximizer == 0.5
    assert bound.root_plus == math.inf
    grid = np.linspace(1e-6, 1 - 1e-6, 10**6)
    assert abs(np.max(grid * (1 - grid)) - 0.25) <= 1e-9


@pytest.mark.parametrize(
    "m", [math.nextafter(1.0, 0.0), 1 - 1e-9, 1 + 1e-9, math.nextafter(1.0, 2.0)]
)
def test_bound_next_to_weight_one_is_quarter(m):
    # The profile tends to tau*(1-tau) as m -> 1, maximized at 1/2.
    bound = variance_bound(TverskyParams(m, m))
    assert bound.maximizer == pytest.approx(0.5, rel=1e-8)
    assert bound.value == pytest.approx(0.25, rel=1e-8)


def test_bound_above_weight_one_uses_plus_root():
    bound = variance_bound(TverskyParams(2.0, 0.3))
    assert bound.maximizer == bound.root_plus
    assert 0.0 < bound.maximizer < 1.0
    grid = np.linspace(1e-6, 1 - 1e-6, 10**6)
    assert abs(np.max(_profile(grid, 2.0)) - bound.value) <= 1e-9


def test_bound_stationarity_by_central_differences():
    h = 1e-6
    for m in np.arange(0.1, 1.0, 0.1):
        tau = variance_bound(TverskyParams(m, m)).maximizer
        derivative = (_profile(tau + h, m) - _profile(tau - h, m)) / (2 * h)
        assert abs(derivative) <= 1e-8


def test_bound_rejects_invalid_weights():
    with pytest.raises(InvalidParameterError):
        variance_bound(TverskyParams(0.0, 0.5))


# ---------------------------------------------------------------------------
# sample-size plans
# ---------------------------------------------------------------------------


def test_required_events_golden():
    plan = required_events(0.01, F05)
    assert plan.required_events == 10250
    assert plan.required_total is None
    assert plan.target_se == 0.01


def test_required_events_coarser_target():
    # 0.2050 / (0.0004 * 0.2) = 2562.5, ceiling 2563
    assert required_events(0.02, F05).required_events == 2563


def test_required_total_golden():
    plan = required_total(0.01, F05, 0.615)
    assert plan.required_events == 10250
    assert plan.required_total == 16667
    assert plan.prevalence == 0.615


def test_required_total_half_prevalence():
    assert required_total(0.01, F05, 0.5).required_total == 20500


def test_required_total_all_events():
    plan = required_total(0.01, F05, 1.0)
    assert plan.required_total == 10250
    assert plan.required_total == plan.required_events


def test_halving_target_quadruples_requirement():
    bound = planning_bound(F05)
    fine = bound / (0.005**2 * F05.fn_weight)
    coarse = bound / (0.01**2 * F05.fn_weight)
    assert fine == 4.0 * coarse


def test_total_at_least_events():
    rng = np.random.default_rng(2)
    for _ in range(200):
        params = TverskyParams(*(10.0 ** rng.uniform(-1, 0.4, size=2)))
        delta = float(10.0 ** rng.uniform(-3, -0.7))
        ez = float(rng.uniform(0.01, 1.0))
        plan = required_total(delta, params, ez)
        assert plan.required_total >= plan.required_events >= 1


def test_plan_validation():
    with pytest.raises(InvalidParameterError):
        required_events(0.0, F05)
    with pytest.raises(InvalidParameterError):
        required_events(-0.01, F05)
    for ez in (0.0, -0.2, 1.5, math.inf):
        with pytest.raises(InvalidParameterError):
            required_total(0.01, F05, ez)


@pytest.mark.parametrize("delta", [1e-300, 3e-156, 1e-160])
def test_plan_too_large_to_represent_is_parameter_error(delta):
    with pytest.raises(InvalidParameterError, match="exceeds the float range"):
        required_events(delta, F05)
    with pytest.raises(InvalidParameterError, match="exceeds the float range"):
        required_total(delta, F05, 0.5)


def test_bound_overflow_is_parameter_error():
    with pytest.raises(InvalidParameterError, match="max_weight=1e\\+300 is too large"):
        variance_bound(TverskyParams(1e300, 1.0))
    with pytest.raises(InvalidParameterError):
        required_events(0.01, TverskyParams(1.0, 1e300))


def test_plan_whose_quotient_underflows_needs_one_record():
    # delta^2 overflows to inf, so V / (delta^2 * fn_weight) is 0; the
    # requirement is still positive and rounds up to one record.
    plan = required_total(1e200, F05, 0.5)
    assert (plan.required_events, plan.required_total) == (1, 1)
    assert required_events(1e155, F05).required_events == 1


def test_planning_bound_is_table_resolution():
    assert planning_bound(F05) == 0.205
    assert planning_bound(fbeta_to_tversky(1.0)) == 0.1549


def test_plan_guarantee_closure():
    # Any dataset meeting the event requirement achieves se <= delta.
    rng = np.random.default_rng(29)
    for _ in range(300):
        params = TverskyParams(*(10.0 ** rng.uniform(-1, 0.4, size=2)))
        delta = float(10.0 ** rng.uniform(-2.2, -1.0))
        events_needed = required_events(delta, params).required_events
        events = events_needed + int(rng.integers(0, 1000))
        tp = int(rng.integers(1, events + 1))
        counts = ConfusionCounts(
            tp, events - tp, int(rng.integers(0, 2000)), int(rng.integers(0, 2000))
        )
        se = math.sqrt(asymptotic_variance(counts, params) / counts.n)
        assert se <= delta


@settings(max_examples=300, deadline=None)
@given(
    weights=st.tuples(*[st.floats(-1.3, 1.3).map(lambda x: 10.0**x)] * 2),
    cells=st.tuples(st.integers(1, 10**6), *[st.integers(0, 10**6)] * 3),
)
def test_the_scaled_variance_is_at_most_the_exact_bound_and_the_profile_without_fp(weights, cells):
    # variance * fn_weight * label_rate <= V(max weight), the exact bound (the
    # planning constant is rounded). With no false positives it is the
    # profile at fn_weight, which test_derivations.py derives; the profile
    # is computed exactly here, because 1 - t loses digits as t nears 1.
    params = TverskyParams(*weights)
    counts = ConfusionCounts(*cells)
    scaled = asymptotic_variance(counts, params) * params.fn_weight * counts.label_rate
    assert scaled <= variance_bound(params).value * (1.0 + 1e-12)
    face = counts._replace(fp=0)
    errors = Fraction(params.fn_weight) * face.fn
    t = face.tp / (face.tp + errors)
    profile = t * (errors / (face.tp + errors)) * (1 - (1 - Fraction(params.fn_weight)) * t) ** 2
    scaled = asymptotic_variance(face, params) * params.fn_weight * face.label_rate
    assert scaled == pytest.approx(float(profile), rel=1e-12, abs=0.0)
