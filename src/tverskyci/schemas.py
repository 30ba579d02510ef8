"""JSON Schemas for the machine-readable CLI reports.

Every ``--format json`` payload validates against the schema named after
its subcommand. Field names and units are part of the compatibility
contract; see the README for the prose version.
"""

from __future__ import annotations


def _object(**properties: dict) -> dict:
    """A closed object: exactly these properties, every one required."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


def _report(command: str, **properties: dict) -> dict:
    """The report of one subcommand, tagged with its name."""
    return _object(command={"const": command}, **properties)


_NUMBER = {"type": "number"}
_NULLABLE_NUMBER = {"type": ["number", "null"]}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
_COUNT = {"type": "integer", "minimum": 0}
_N = {"type": "integer", "minimum": 1}

_PARAMS = _object(fp_weight=_POSITIVE, fn_weight=_POSITIVE)

ESTIMATE_SCHEMA = _report(
    "estimate",
    n=_N,
    params=_PARAMS,
    estimate=_UNIT,
    precision=_NULLABLE_NUMBER,
    recall=_NULLABLE_NUMBER,
)

CI_SCHEMA = _report(
    "ci",
    n=_N,
    params=_PARAMS,
    level={"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    estimate=_UNIT,
    variance=_NONNEGATIVE,
    se=_NONNEGATIVE,
    half_width=_NONNEGATIVE,
    ci_lower=_UNIT,
    ci_upper=_UNIT,
)

PLAN_SCHEMA = _report(
    "plan",
    params=_PARAMS,
    target_se=_POSITIVE,
    bound=_POSITIVE,
    required_events=_N,
    prevalence=_NULLABLE_NUMBER,
    required_total={"type": ["integer", "null"]},
)

BOUND_TABLE_SCHEMA = _report(
    "bound-table",
    rows={
        "type": "array",
        "minItems": 1,
        "items": _object(max_weight=_POSITIVE, bound=_POSITIVE),
    },
)

SIMULATE_SCHEMA = _report(
    "simulate",
    config=_object(
        prevalence=_NUMBER,
        shift=_NUMBER,
        threshold=_NUMBER,
        n=_N,
        replications=_N,
        params=_PARAMS,
        level=_NUMBER,
        seed=_COUNT,
    ),
    report=_object(
        true_value=_NUMBER,
        mean_estimate=_NUMBER,
        sd_estimates=_NUMBER,
        mean_se=_NUMBER,
        coverage=_UNIT,
        degenerate_count=_COUNT,
    ),
    # null when fewer than 2 replications survive
    histogram={
        "anyOf": [
            {"type": "null"},
            _object(
                counts={"type": "array", "items": _COUNT},
                edges={"type": "array", "items": _NUMBER},
                skewness=_NULLABLE_NUMBER,
                excess_kurtosis=_NULLABLE_NUMBER,
                n={"type": "integer", "minimum": 2},
            ),
        ]
    },
)

BOOTSTRAP_CHECK_SCHEMA = _report(
    "bootstrap-check",
    n=_N,
    params=_PARAMS,
    analytic_se=_NONNEGATIVE,
    bootstrap_se=_NONNEGATIVE,
    relative_gap=_NULLABLE_NUMBER,
    resamples={"type": "integer", "minimum": 100},
    seed=_COUNT,
)

SCHEMAS_BY_COMMAND = {
    "estimate": ESTIMATE_SCHEMA,
    "ci": CI_SCHEMA,
    "plan": PLAN_SCHEMA,
    "bound-table": BOUND_TABLE_SCHEMA,
    "simulate": SIMULATE_SCHEMA,
    "bootstrap-check": BOOTSTRAP_CHECK_SCHEMA,
}
