"""Prediction-rule-free variance bound and conservative sample-size plans.

For any prediction rule, the per-observation variance of the index
estimate satisfies::

    variance <= V(m) / (fn_weight * label_rate),   m = max(fp_weight, fn_weight)

where V(m) is the maximum of the profile::

    f(t) = t * (1 - t) * (1 - (1 - m) * t)^2       over t in (0, 1).

The maximizer has a closed form: with c = 1/(1 - m), the stationary
candidates are (3 + 2c -/+ sqrt(4c^2 - 4c + 9)) / 8, and the maximum is at
the minus root when m < 1 (c > 1) and at the plus root when m > 1 (c < 0).
At m = 1 both one-sided limits give t = 1/2 and V = 1/4.

Because V depends on the weights only, a target standard error ``delta``
can be met before the prediction rule (and hence the index itself or the
prediction rate) is known::

    events needed:  n * label_rate >= V(m) / (delta^2 * fn_weight)
    total needed:   n >= V(m) / (delta^2 * fn_weight * prevalence)

Plans use the bound rounded to four decimals, the resolution at which
:func:`bound_table` prints it, so a hand calculation from the printed
table reproduces the returned counts exactly.
"""

from __future__ import annotations

import math

from . import _PLANNING_NAMES
from .errors import InvalidParameterError
from .estimation import TverskyParams, _record, _require_positive, _require_real, _require_type

__all__ = sorted(_PLANNING_NAMES)

TABLE_WEIGHTS = (0.5, 0.6, 0.7, 0.8, 0.9)

# Bounds are tabulated and used for planning at this resolution.
_TABLE_DECIMALS = 4

# Quotients within one part in 1e12 of an integer are treated as exact
# before taking the ceiling, so decimal-exact plans don't gain a unit from
# binary rounding.
_CEIL_RTOL = 1e-12


class VarianceBound(_record("max_weight root_minus root_plus maximizer value")):
    """Closed-form maximization of the variance profile for one weight pair.

    ``root_minus`` and ``root_plus`` are the two stationary candidates of
    the profile; ``maximizer`` is the selected one (in (0, 1)) and
    ``value`` is the profile evaluated there. At max_weight = 1 the plus
    root diverges and is reported as inf.
    """

    __slots__ = ()


class PlanResult(_record("required_events required_total target_se params prevalence")):
    """Sample-size plan for a target standard error.

    ``required_events`` is the minimum number of positive-label records;
    ``required_total`` (present only when a prevalence was supplied) is the
    minimum overall sample size.
    """

    __slots__ = ()


def variance_bound(params: TverskyParams) -> VarianceBound:
    """Evaluate the closed-form bound V(max_weight).

    The radicand 4c^2 - 4c + 9 is at least 8 for every real c, so the
    roots are evaluated directly without a stability rewrite.
    """
    _require_type(params, TverskyParams, "params")
    m = params.max_weight
    if m == 1.0:
        # Limit case: the damping factor (1 - (1-m)t)^2 degenerates to 1
        # and the profile is the plain parabola t(1-t), maximized at 1/2.
        return VarianceBound(
            max_weight=1.0,
            root_minus=0.5,
            root_plus=math.inf,
            maximizer=0.5,
            value=0.25,
        )
    c = 1.0 / (1.0 - m)
    s = math.sqrt(4.0 * c * c - 4.0 * c + 9.0)
    # The roots multiply to c/4. Add s to 3 + 2c with the sign of 3 + 2c and
    # divide for the other root: subtracting the two loses every digit of
    # that root when m is within about 1e-8 of 1.
    far = (3.0 + 2.0 * c + math.copysign(s, 3.0 + 2.0 * c)) / 8.0
    root_minus, root_plus = sorted((far, c / 4.0 / far))
    # Branch on m: below ~1e-16, 1 - m and so c round to exactly 1.
    maximizer = root_minus if m < 1.0 else root_plus
    try:
        value = maximizer * (1.0 - maximizer) * (1.0 - maximizer / c) ** 2
    except OverflowError:
        raise InvalidParameterError(f"max_weight={m:g} is too large: V(m) overflows") from None
    return VarianceBound(
        max_weight=m,
        root_minus=root_minus,
        root_plus=root_plus,
        maximizer=maximizer,
        value=value,
    )


def planning_bound(params: TverskyParams) -> float:
    """The bound value rounded to table resolution; the constant the
    planning formulas consume."""
    return round(variance_bound(params).value, _TABLE_DECIMALS)


def bound_table() -> tuple[tuple[float, float], ...]:
    """(max_weight, planning_bound) rows over TABLE_WEIGHTS, for display or
    hand planning."""
    return tuple((m, planning_bound(TverskyParams(m, m))) for m in TABLE_WEIGHTS)


def _ceil_snapped(bound: float, delta: float, params: TverskyParams, prevalence=None) -> int:
    # ceil(bound / (delta^2 * fn_weight [* prevalence])) for a positive bound: a
    # quotient past the float range is no plan, and one that underflows to 0
    # still needs one record. The error names the inputs: the divisor may be 0.
    scale = delta * delta * params.fn_weight * (1.0 if prevalence is None else prevalence)
    quotient = bound / scale if scale > 0.0 else math.inf
    if quotient == math.inf:
        given = f"delta={delta:g}, fn_weight={params.fn_weight:g}"
        given += "" if prevalence is None else f", prevalence={prevalence:g}"
        raise InvalidParameterError(f"the plan for {given} exceeds the float range")
    return max(1, math.ceil(quotient * (1.0 - _CEIL_RTOL)))


def required_events(delta: float, params: TverskyParams) -> PlanResult:
    """Minimum positive-label count guaranteeing se <= delta.

    ceil(V / (delta^2 * fn_weight)) with V = planning_bound(params).
    """
    delta = _require_positive(delta, "delta")
    return PlanResult(
        required_events=_ceil_snapped(planning_bound(params), delta, params),
        required_total=None,
        target_se=delta,
        params=params,
        prevalence=None,
    )


def required_total(delta: float, params: TverskyParams, prevalence: float) -> PlanResult:
    """Minimum overall sample size guaranteeing se <= delta, given the
    positive-label prevalence.

    ceil(V / (delta^2 * fn_weight * prevalence)); the event requirement is
    populated as well. prevalence = 1 is accepted (every record is an
    event, so the totals coincide).
    """
    delta = _require_positive(delta, "delta")
    prevalence = _require_real(prevalence, "prevalence")
    if not (0.0 < prevalence <= 1.0):  # nan fails it too
        raise InvalidParameterError(f"prevalence must lie in (0, 1], got {prevalence}")
    # The total first: its divisor is the smaller, so an error names prevalence.
    total = _ceil_snapped(planning_bound(params), delta, params, prevalence)
    return required_events(delta, params)._replace(required_total=total, prevalence=prevalence)
