"""Command-line interface.

Subcommands: estimate, ci, plan, bound-table, simulate, bootstrap-check.
Reports go to stdout as text or JSON (``--format``); warnings go to
stderr so machine output stays parseable. Exit codes: 0 success, 1 usage
error, 2 data/parse error, 3 degenerate-sample error, 4 numeric-domain
error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from collections.abc import Callable, Sequence

from . import MODES
from .errors import TverskyCIError, UsageError


# How a number starts after its minus sign; no option is spelled this way.
_NUMBER_STARTS = (*"0123456789", *(f".{digit}" for digit in "0123456789"), "inf", "nan")


class _Parser(argparse.ArgumentParser):
    def _parse_optional(self, arg_string: str):
        # An argument that starts like a negative number is a value, so that
        # --threshold -1e-3, --mu -inf and --ab -1,2 parse as --flag=value
        # does; argparse's own pattern takes fewer forms (on Python 3.11 only
        # -1 and -1.5).
        if arg_string[:1] == "-" and arg_string[1:].lower().startswith(_NUMBER_STARTS):
            return None
        return super()._parse_optional(arg_string)

    def print_help(self, file=None) -> None:
        # Help is written as a report is: a failed write reaches _run, where
        # argparse's own writer would swallow it.
        _write_report(self.format_help())

    def _print_message(self, message: str, file=None) -> None:
        # All else argparse writes is a usage error, for stderr. argparse
        # would send it to stdout when sys.stderr is None.
        _to_stderr(message)


def _write_report(text: str) -> None:
    """Write text to stdout and flush it, so that a failed write raises here
    rather than at exit. With fd 1 closed, sys.stdout is None; that fails as
    a write to the closed descriptor would."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    sys.stdout.write(text)
    sys.stdout.flush()


def _to_stderr(message: str) -> None:
    """Write a message to stderr, or drop it if stderr cannot take it, so
    that a closed stderr changes neither the report nor the exit code. With
    fd 2 closed, sys.stderr is None, and print would write to stdout."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(message)  # stderr is line-buffered: this writes it out
    except OSError:
        pass


def _comma_fields(
    types: tuple[type, ...], wrong_count: str, malformed: str
) -> Callable[[str], tuple]:
    """An argparse type for len(types) comma-separated fields, each parsed by
    its type. A bad field reports ``malformed`` followed by the text, quoted."""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != len(types):
            raise argparse.ArgumentTypeError(wrong_count)
        try:
            return tuple(kind(part) for kind, part in zip(types, parts))
        except ValueError:
            from .estimation import _quote

            raise argparse.ArgumentTypeError(f"{malformed} {_quote(text)}") from None

    return parse


def _add_params_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float, help="F-beta importance parameter (default 1)")
    group.add_argument(
        "--ab",
        type=_comma_fields(
            (float, float),
            "expected 2 comma-separated weights: A,B",
            "weights must be numbers, got",
        ),
        metavar="A,B",
        help="explicit fp,fn weights for a Tversky index",
    )


def _add_input_flags(sub: argparse.ArgumentParser, include_summary: bool) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--input", metavar="PATH", help="record file (delimited or JSON lines)")
    group.add_argument(
        "--counts",
        type=_comma_fields(
            (int, int, int, int),
            "expected 4 comma-separated counts: TP,FN,FP,TN",
            "counts must be integers, got",
        ),
        metavar="TP,FN,FP,TN",
        help="inline confusion counts",
    )
    if include_summary:
        group.add_argument(
            "--summary",
            type=_comma_fields(
                (int, float, float, float),
                "expected 4 comma-separated values: n,tp_rate,tversky,tversky_sq",
                "malformed summary",
            ),
            metavar="N,TP_RATE,TVERSKY,TVERSKY_SQ",
            help="inline summary statistics",
        )
    sub.add_argument("--mode", choices=MODES, default="auto", help="record file mode")
    sub.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="score cutoff for score-mode files (default 0.5)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tverskyci",
        description=(
            "Point estimates, standard errors, confidence intervals, and sample-size "
            "plans for F-beta scores and Tversky indices."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    estimate = subs.add_parser("estimate", help="index, precision, and recall")
    _add_input_flags(estimate, include_summary=True)
    _add_params_flags(estimate)

    ci = subs.add_parser("ci", help="estimate with standard error and confidence interval")
    _add_input_flags(ci, include_summary=True)
    _add_params_flags(ci)
    ci.add_argument("--level", type=float, default=0.95, help="confidence level (default 0.95)")

    plan = subs.add_parser("plan", help="conservative sample-size plan for a target se")
    plan.add_argument("--delta", type=float, required=True, help="target standard error")
    plan.add_argument("--ez", type=float, help="positive-label prevalence (enables total size)")
    _add_params_flags(plan)

    subs.add_parser("bound-table", help="tabulate the planning bound")

    simulate = subs.add_parser("simulate", help="coverage experiment on the Gaussian score model")
    simulate.add_argument("--pz", type=float, default=0.5, help="label prevalence (default 0.5)")
    simulate.add_argument(
        "--mu", type=float, default=2.5, help="score shift for positives (default 2.5)"
    )
    simulate.add_argument(
        "--threshold", type=float, default=1.0, help="prediction cutoff (default 1.0)"
    )
    simulate.add_argument("--n", type=int, default=1000, help="records per replication")
    simulate.add_argument("--replications", type=int, default=10000, help="replication count")
    simulate.add_argument("--level", type=float, default=0.95, help="confidence level")
    simulate.add_argument("--seed", type=int, default=0, help="random seed")
    simulate.add_argument("--bins", type=int, default=30, help="histogram bins (default 30)")
    _add_params_flags(simulate)

    check = subs.add_parser(
        "bootstrap-check", help="compare the analytic se against a bootstrap"
    )
    _add_input_flags(check, include_summary=False)
    check.add_argument(
        "--resamples", type=int, default=100000, help="bootstrap resamples (default 100000)"
    )
    check.add_argument("--seed", type=int, default=0, help="random seed")
    _add_params_flags(check)

    # Every subcommand takes --format, added last so it ends each usage line.
    for sub in subs.choices.values():
        sub.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
    return parser


def _resolve_params(args: argparse.Namespace) -> TverskyParams:
    # Each command loads estimation where it runs, so help and usage errors never do.
    from .estimation import TverskyParams, fbeta_to_tversky

    if args.ab is not None:
        return TverskyParams(*args.ab)
    return fbeta_to_tversky(args.beta if args.beta is not None else 1.0)


def _resolve_data(args: argparse.Namespace) -> ConfusionCounts | SummaryStats:
    from .estimation import ConfusionCounts, SummaryStats

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
# table of an object field; _fields, _render and _schema read this layout,
# and report_schemas() builds each report's schema from its table. The text is a format spec for the line "name: value" (n/a
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

_ESTIMATE = (
    ("n", _N, ""),
    ("params", _PARAMS, _WEIGHTS.format),
    ("estimate", _UNIT, ".6f"),
    ("precision", _NULLABLE_NUMBER, ".6f"),
    ("recall", _NULLABLE_NUMBER, ".6f"),
)

_CI = (
    ("n", _N, ""),
    ("params", _PARAMS, _WEIGHTS.format),
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
    ("n", _N, ""),
    ("params", _PARAMS, _WEIGHTS.format),
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


def _schema(schema: object) -> dict:
    """A row's JSON Schema: its fragment, or the closed object of its table."""
    if not isinstance(schema, tuple):
        return schema
    closed = {
        "type": "object",
        "properties": {name: _schema(fragment) for name, fragment, _ in schema},
        "required": [name for name, _, _ in schema],
        "additionalProperties": False,
    }
    if isinstance(schema, _Items):
        return {"type": "array", "minItems": 1, "items": closed}
    if isinstance(schema, _MaybeNull):
        return {"anyOf": [{"type": "null"}, closed]}
    return closed


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (source, warnings), where source
# is a record or namespace that holds its report's fields by name
# ---------------------------------------------------------------------------


def _cmd_estimate(args: argparse.Namespace) -> tuple[object, list[str]]:
    from .estimation import SummaryStats, _consistent_ratios, precision, recall, tversky_index

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
    from .estimation import confidence_interval

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
    from .estimation import confidence_interval
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


def report_schemas() -> dict:
    """The JSON Schema of each subcommand's report: a closed object of its
    table's fields, every one required, plus the ``command`` tag."""
    return {
        command: _schema((("command", {"const": command}, None), *table))
        for command, (_, table) in _COMMANDS.items()
    }


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command line on argv and return its exit code, 0 to 4.

    ``main()`` with no argument runs as the program, on ``sys.argv``, and
    never returns: once its report, help or error is out, it flushes stdout,
    then stderr, and ends the process with ``os._exit``, so the interpreter
    skips its teardown (atexit handlers, module teardown and the final
    garbage collection). A stream that is None or whose flush fails is
    skipped.
    """
    code = _run(argv)
    if argv is not None:
        return code
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):  # None for a closed descriptor
            pass
    os._exit(code)


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command, table = _COMMANDS[args.command]
        source, warnings = command(args)
        fields = _fields(table, source)
        for warning in warnings:
            _to_stderr(f"warning: {warning}\n")
        if args.format == "json":
            import json

            report = json.dumps({"command": args.command, **fields}, indent=2, sort_keys=True)
        else:
            report = "\n".join(_render(table, fields))
        _write_report(report + "\n")
    except SystemExit as exc:  # argparse's: 0 after help, 2 for a usage error, which is 1 here
        return 1 if exc.code else 0
    except TverskyCIError as exc:
        _to_stderr(f"tverskyci: error: {exc}\n")
        return exc.exit_code
    except OSError as exc:  # from writing the help or the report
        # End without a traceback. A reader that has closed the pipe needs
        # no message. When main returns to a caller, devnull under stdout
        # keeps the caller's exit flush quiet; a stream without a descriptor
        # (None, or a caller's in-memory stream) is left as it is.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            _to_stderr(f"tverskyci: error: cannot write the report: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
