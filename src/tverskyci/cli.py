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
from .errors import TverskyCIError


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
        # The commands and their tables load only once the arguments parse.
        from ._commands import _COMMANDS, _fields, _render

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
    main()
