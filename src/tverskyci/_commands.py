"""The subcommands behind the command line, and their report tables.

``cli`` loads this module only once the arguments parse, so ``--help`` and
a usage error never compile it. Each ``_cmd_*`` function takes the parsed
arguments and returns (source, warnings), and ``_COMMANDS`` pairs it with
its subcommand's report table, from which ``_fields`` builds the JSON
object and ``_render`` the text lines.
"""

from __future__ import annotations

import argparse

from .errors import UsageError
from .estimation import (
    ConfusionCounts, SummaryStats, TverskyParams, _consistent_ratios, _require_count,
    confidence_interval, fbeta_to_tversky, precision, recall, tversky_index,
)


def _resolve_params(args: argparse.Namespace) -> TverskyParams:
    if args.ab is not None:
        return TverskyParams(*args.ab)
    return fbeta_to_tversky(args.beta if args.beta is not None else 1.0)


def _resolve_data(args: argparse.Namespace) -> ConfusionCounts | SummaryStats:
    # bootstrap-check has no --summary flag, so it always gets counts
    if getattr(args, "summary", None) is not None:
        return SummaryStats(*args.summary)
    if args.input is not None:
        from .ingest import ingest

        return ingest(args.input, mode=args.mode, threshold=args.threshold)
    if args.counts is not None:
        return ConfusionCounts(*args.counts)
    flags = "--summary, --input or --counts" if "summary" in args else "--input or --counts"
    raise UsageError(f"provide {flags}")


# ---------------------------------------------------------------------------
# reports: one table per subcommand, with one row per field in text order
# ---------------------------------------------------------------------------
# A row is (name, schema, text). The schema is a JSON Schema fragment, or the
# table of an object field; _fields, _render and schemas._schema read this
# layout, and schemas.SCHEMAS_BY_COMMAND holds the schema built from each
# report's table. The text is a format spec for the line "name: value" (n/a
# for null); or a function of the object's fields, as keywords, for a line
# that shows several of them (no line for a null field); or None for no line.


class _MaybeNull(tuple):
    """The table of an object field that may be null."""


class _Items(tuple):
    """The table of each object in a non-empty array field, whose items are
    tuples of the row values in row order."""


_NUMBER = {"type": "number"}
_NULLABLE_NUMBER = {"type": ["number", "null"]}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_UNIT = {"type": "number", "minimum": 0, "maximum": 1}
_COUNT = {"type": "integer", "minimum": 0}
_N = {"type": "integer", "minimum": 1}

_PARAMS = (("fp_weight", _POSITIVE, None), ("fn_weight", _POSITIVE, None))
_WEIGHTS = "weights: fp={params[fp_weight]:g} fn={params[fn_weight]:g}"
# The first two rows of each report on one sample.
_SAMPLE = (("n", _N, ""), ("params", _PARAMS, _WEIGHTS.format))

_ESTIMATE = (
    *_SAMPLE,
    ("estimate", _UNIT, ".6f"),
    ("precision", _NULLABLE_NUMBER, ".6f"),
    ("recall", _NULLABLE_NUMBER, ".6f"),
)

_CI = (
    *_SAMPLE,
    ("level", {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}, "g"),
    ("estimate", _UNIT, ".6f"),
    ("se", _NONNEGATIVE, ".6f"),
    ("half_width", _NONNEGATIVE, ".6f"),
    ("ci_lower", _UNIT, "ci: [{ci_lower:.6f}, {ci_upper:.6f}]".format),
    ("ci_upper", _UNIT, None),
    ("variance", _NONNEGATIVE, ".6f"),
)

_PLAN = (
    ("params", _PARAMS, _WEIGHTS.format),
    ("target_se", _POSITIVE, "g"),
    ("bound", _POSITIVE, ".4f"),
    ("required_events", _N, ""),
    # null, and so not shown, without --ez
    ("prevalence", _NULLABLE_NUMBER, "prevalence: {prevalence:g}".format),
    ("required_total", {"type": ["integer", "null"]}, "required_total: {required_total}".format),
)

_BOUND_TABLE = (
    (
        "rows",
        _Items((("max_weight", _POSITIVE, None), ("bound", _POSITIVE, None))),
        lambda rows: "\n".join(
            ["max_weight  bound"]
            + ["{max_weight:<10.1f}  {bound:.4f}".format(**row) for row in rows]
        ),
    ),
)

_SIMULATE = (
    (
        "config",
        (
            (
                "prevalence",
                _NUMBER,
                "model: prevalence={prevalence:g} shift={shift:g} threshold={threshold:g}".format,
            ),
            ("shift", _NUMBER, None),
            ("threshold", _NUMBER, None),
            ("n", _N, "n: {n}  replications: {replications}  seed: {seed}".format),
            ("replications", _N, None),
            ("seed", _COUNT, None),
            ("params", _PARAMS, (_WEIGHTS + "  level: {level:g}").format),
            ("level", _NUMBER, None),
        ),
        None,
    ),
    (
        "report",
        (
            ("true_value", _NUMBER, ".6f"),
            ("mean_estimate", _NUMBER, ".6f"),
            ("sd_estimates", _NUMBER, ".6f"),
            ("mean_se", _NUMBER, ".6f"),
            ("coverage", _UNIT, ".4f"),
            ("degenerate_count", _COUNT, ""),
        ),
        None,
    ),
    (
        # null when fewer than 2 replications survive
        "histogram",
        _MaybeNull(
            (
                ("skewness", _NULLABLE_NUMBER, ".6f"),
                ("excess_kurtosis", _NULLABLE_NUMBER, ".6f"),
                ("counts", {"type": "array", "items": _COUNT}, None),
                ("edges", {"type": "array", "items": _NUMBER}, None),
                ("n", {"type": "integer", "minimum": 2}, None),
            )
        ),
        None,
    ),
)

_BOOTSTRAP_CHECK = (
    *_SAMPLE,
    ("analytic_se", _NONNEGATIVE, ".6f"),
    ("bootstrap_se", _NONNEGATIVE, ".6f"),
    ("relative_gap", _NULLABLE_NUMBER, ".6f"),
    ("resamples", {"type": "integer", "minimum": 100}, None),
    ("seed", _COUNT, None),
)


def _fields(table: tuple, source: object) -> dict:
    """The JSON object of a table: each field read from source by name. An
    object field is converted by its own table, and each tuple in an array
    field by its table's rows in order."""
    fields = {}
    for name, schema, _ in table:
        value = getattr(source, name)
        if isinstance(schema, _Items):
            value = [dict(zip((row[0] for row in schema), item)) for item in value]
        elif isinstance(schema, tuple) and value is not None:
            value = _fields(schema, value)
        fields[name] = value
    return fields


def _render(table: tuple, fields: dict | None) -> list[str]:
    """The text lines of a table's fields; a null object's lines read n/a."""
    lines = []
    for name, schema, text in table:
        value = None if fields is None else fields[name]
        if isinstance(text, str):
            lines.append(f"{name}: {'n/a' if value is None else format(value, text)}")
        elif text is not None:
            if value is not None:
                lines.append(text(**fields))
        elif isinstance(schema, tuple):
            lines += _render(schema, value)
    return lines


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (source, warnings), where source
# is a record or namespace that holds its report's fields by name
# ---------------------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> tuple[object, list[str]]:
    params = _resolve_params(args)
    data = _resolve_data(args)
    warnings: list[str] = []
    if isinstance(data, SummaryStats):
        _consistent_ratios(data, params)  # the checks ci makes of a summary
        estimate = data.tversky
        prec = rec = None
        warnings.append("precision and recall require record-level input; reported as n/a")
    else:
        estimate = tversky_index(data, params)
        prec = precision(data)
        rec = recall(data)
    source = argparse.Namespace(
        n=data.n, params=params, estimate=estimate, precision=prec, recall=rec
    )
    return source, warnings


def _cmd_ci(args: argparse.Namespace) -> tuple[object, list[str]]:
    params = _resolve_params(args)
    report = confidence_interval(_resolve_data(args), params, args.level)
    warnings = []
    if report.at_boundary:
        warnings.append(
            "estimate is at the boundary (zero variance); "
            "the normal approximation is uninformative here"
        )
    return argparse.Namespace(params=params, **report._asdict()), warnings


def _cmd_plan(args: argparse.Namespace) -> tuple[object, list[str]]:
    from .planning import planning_bound, required_events, required_total

    params = _resolve_params(args)
    if args.ez is not None:
        plan = required_total(args.delta, params, args.ez)
    else:
        plan = required_events(args.delta, params)
    return argparse.Namespace(bound=planning_bound(params), **plan._asdict()), []


def _cmd_bound_table(args: argparse.Namespace) -> tuple[object, list[str]]:
    from .planning import bound_table

    return argparse.Namespace(rows=bound_table()), []


def _cmd_simulate(args: argparse.Namespace) -> tuple[object, list[str]]:
    # simulation loads numpy; only this command and bootstrap-check import it
    from .simulation import ScoreModel, SimulationConfig, histogram_summary, run_simulation

    params = _resolve_params(args)
    model = ScoreModel(prevalence=args.pz, shift=args.mu, threshold=args.threshold)
    config = SimulationConfig(
        model=model,
        n=args.n,
        replications=args.replications,
        params=params,
        level=args.level,
        seed=args.seed,
    )
    # Checked before the draw, and even when fewer than 2 usable replications
    # leave histogram_summary, which checks it too, uncalled.
    _require_count(args.bins, "bins", 1)
    report = run_simulation(config)
    estimates = report.estimates
    histogram = histogram_summary(estimates, bins=args.bins) if estimates.size >= 2 else None
    warnings = []
    if report.degenerate_count:
        warnings.append(
            f"{report.degenerate_count} of {config.replications} replications had no "
            "true positives and were excluded"
        )
    if histogram is None:
        warnings.append("fewer than 2 usable replications; histogram diagnostics omitted")
    # The config object shows the model's fields beside the config's own.
    config = argparse.Namespace(**vars(model), **vars(config))
    return argparse.Namespace(config=config, report=report, histogram=histogram), warnings


def _cmd_bootstrap_check(args: argparse.Namespace) -> tuple[object, list[str]]:
    from .simulation import bootstrap_se

    params = _resolve_params(args)
    counts = _resolve_data(args)
    se = confidence_interval(counts, params).se
    boot = bootstrap_se(counts, params, resamples=args.resamples, seed=args.seed)
    source = argparse.Namespace(
        n=counts.n,
        params=params,
        analytic_se=se,
        bootstrap_se=boot,
        relative_gap=(boot - se) / se if se > 0 else None,
        resamples=args.resamples,
        seed=args.seed,
    )
    return source, []


# Each subcommand's function and report table.
_COMMANDS = {
    "estimate": (_cmd_estimate, _ESTIMATE),
    "ci": (_cmd_ci, _CI),
    "plan": (_cmd_plan, _PLAN),
    "bound-table": (_cmd_bound_table, _BOUND_TABLE),
    "simulate": (_cmd_simulate, _SIMULATE),
    "bootstrap-check": (_cmd_bootstrap_check, _BOOTSTRAP_CHECK),
}
