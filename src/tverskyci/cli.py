"""Command-line interface.

Subcommands: estimate, ci, plan, bound-table, simulate, bootstrap-check.
Reports go to stdout as text or JSON (``--format``); warnings go to
stderr so machine output stays parseable. Exit codes: 0 success, 1 usage
error, 2 data/parse error, 3 degenerate-sample error, 4 numeric-domain
error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from .errors import TverskyCIError, UsageError
from .estimation import (
    MODES,
    ConfusionCounts,
    SummaryStats,
    TverskyParams,
    _consistent_ratios,
    _quote,
    confidence_interval,
    fbeta_to_tversky,
    precision,
    recall,
    tversky_index,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    raise UsageError("provide --input or --counts")


def _fields(record: object, *omit: str) -> dict:
    """A result record, a named tuple or one of the simulation's dataclasses,
    as a JSON object less the fields named in omit. A named tuple held in a
    field (the params) becomes a nested object, not the list json.dumps prints."""
    names = getattr(record, "_fields", None) or record.__dataclass_fields__
    payload = {name: getattr(record, name) for name in names if name not in omit}
    for name, value in payload.items():
        if hasattr(value, "_fields"):
            payload[name] = _fields(value)
    return payload


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (payload, text_lines, warnings)
# ---------------------------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6f}"


def _weights(params: TverskyParams) -> str:
    return f"weights: fp={params.fp_weight:g} fn={params.fn_weight:g}"


def _cmd_estimate(args: argparse.Namespace) -> tuple[dict, list[str], list[str]]:
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
    n = data.n
    payload = {
        "command": "estimate",
        "n": n,
        "params": _fields(params),
        "estimate": estimate,
        "precision": prec,
        "recall": rec,
    }
    lines = [
        f"n: {n}",
        _weights(params),
        f"estimate: {_fmt(estimate)}",
        f"precision: {_fmt(prec)}",
        f"recall: {_fmt(rec)}",
    ]
    return payload, lines, warnings


def _cmd_ci(args: argparse.Namespace) -> tuple[dict, list[str], list[str]]:
    params = _resolve_params(args)
    report = confidence_interval(_resolve_data(args), params, args.level)
    warnings = []
    if report.at_boundary:
        warnings.append(
            "estimate is at the boundary (zero variance); "
            "the normal approximation is uninformative here"
        )
    payload = {"command": "ci", "params": _fields(params), **_fields(report, "at_boundary")}
    lines = [
        f"n: {report.n}",
        _weights(params),
        f"level: {report.level:g}",
        f"estimate: {_fmt(report.estimate)}",
        f"se: {_fmt(report.se)}",
        f"half_width: {_fmt(report.half_width)}",
        f"ci: [{report.ci_lower:.6f}, {report.ci_upper:.6f}]",
        f"variance: {_fmt(report.variance)}",
    ]
    return payload, lines, warnings


def _cmd_plan(args: argparse.Namespace) -> tuple[dict, list[str], list[str]]:
    from .planning import planning_bound, required_events, required_total

    params = _resolve_params(args)
    if args.ez is not None:
        plan = required_total(args.delta, params, args.ez)
    else:
        plan = required_events(args.delta, params)
    bound = planning_bound(params)
    payload = {"command": "plan", "bound": bound, **_fields(plan)}
    lines = [
        _weights(params),
        f"target_se: {plan.target_se:g}",
        f"bound: {bound:.4f}",
        f"required_events: {plan.required_events}",
    ]
    if plan.required_total is not None:
        lines.append(f"prevalence: {plan.prevalence:g}")
        lines.append(f"required_total: {plan.required_total}")
    return payload, lines, []


def _cmd_bound_table(args: argparse.Namespace) -> tuple[dict, list[str], list[str]]:
    from .planning import bound_table

    rows = bound_table()
    payload = {
        "command": "bound-table",
        "rows": [{"max_weight": m, "bound": v} for m, v in rows],
    }
    lines = ["max_weight  bound"]
    lines += [f"{m:<10.1f}  {v:.4f}" for m, v in rows]
    return payload, lines, []


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, list[str], list[str]]:
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
    payload = {
        "command": "simulate",
        "config": {**_fields(model), **_fields(config, "model")},
        "report": _fields(report, "estimates"),
        "histogram": None if histogram is None else _fields(histogram),
    }
    lines = [
        f"model: prevalence={model.prevalence:g} shift={model.shift:g} "
        f"threshold={model.threshold:g}",
        f"n: {config.n}  replications: {config.replications}  seed: {config.seed}",
        f"{_weights(params)}  level: {config.level:g}",
        f"true_value: {_fmt(report.true_value)}",
        f"mean_estimate: {_fmt(report.mean_estimate)}",
        f"sd_estimates: {_fmt(report.sd_estimates)}",
        f"mean_se: {_fmt(report.mean_se)}",
        f"coverage: {report.coverage:.4f}",
        f"degenerate_count: {report.degenerate_count}",
        f"skewness: {_fmt(None if histogram is None else histogram.skewness)}",
        f"excess_kurtosis: {_fmt(None if histogram is None else histogram.excess_kurtosis)}",
    ]
    return payload, lines, warnings


def _cmd_bootstrap_check(args: argparse.Namespace) -> tuple[dict, list[str], list[str]]:
    from .simulation import bootstrap_se

    params = _resolve_params(args)
    counts = _resolve_data(args)
    report = confidence_interval(counts, params)
    boot = bootstrap_se(counts, params, resamples=args.resamples, seed=args.seed)
    gap = (boot - report.se) / report.se if report.se > 0 else None
    payload = {
        "command": "bootstrap-check",
        "n": counts.n,
        "params": _fields(params),
        "analytic_se": report.se,
        "bootstrap_se": boot,
        "relative_gap": gap,
        "resamples": args.resamples,
        "seed": args.seed,
    }
    lines = [
        f"n: {counts.n}",
        _weights(params),
        f"analytic_se: {_fmt(report.se)}",
        f"bootstrap_se: {_fmt(boot)}",
        f"relative_gap: {_fmt(gap)}",
    ]
    return payload, lines, []


_COMMANDS = {
    "estimate": _cmd_estimate,
    "ci": _cmd_ci,
    "plan": _cmd_plan,
    "bound-table": _cmd_bound_table,
    "simulate": _cmd_simulate,
    "bootstrap-check": _cmd_bootstrap_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, lines, warnings = _COMMANDS[args.command](args)
    except TverskyCIError as exc:
        print(f"tverskyci: error: {exc}", file=sys.stderr)
        return exc.exit_code
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
