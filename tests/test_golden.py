"""Printed output pinned byte for byte against committed fixtures.

The fixtures in tests/data/ are the stdout of the README's reference
`simulate`, of the benchmark's 1M-resample `bootstrap-check`, and of two
`estimate`, two `ci`, two `plan`, one single-replication `simulate` and the
`bound-table` call in text and JSON, of every `--help` screen at 80
columns, and the JSON Schema of every report. A change that alters a single
printed byte of any of them fails here.
"""

import json
from pathlib import Path

import pytest

from tverskyci.cli import main

DATA = Path(__file__).parent / "data"

SIMULATE = (
    "simulate", "--pz", "0.5", "--mu", "2.5", "--threshold", "1", "--n", "1000",
    "--replications", "10000", "--beta", "0.5", "--seed", "0",
)
BOOTSTRAP = (
    "bootstrap-check", "--counts", "300,60,40,600", "--beta", "0.5",
    "--resamples", "1000000", "--seed", "0", "--format", "json",
)
QUICK = {
    "estimate_counts": ("estimate", "--counts", "286,43,46,160", "--beta", "0.5"),
    "ci_summary": ("ci", "--summary", "535,0.535,0.861,0.900", "--beta", "0.5"),
    "ci_counts_ab": ("ci", "--counts", "286,43,46,160", "--ab", "0.3,3", "--level", "0.9"),
    "plan_total": ("plan", "--delta", "0.01", "--beta", "0.5", "--ez", "0.615"),
    "bound_table": ("bound-table",),
}
PLAN_EVENTS = ("plan", "--delta", "0.01", "--beta", "0.5")


@pytest.mark.parametrize(
    "argv,fixture",
    [
        (SIMULATE + ("--format", "json"), "simulate_reference.json"),
        (SIMULATE, "simulate_reference.txt"),
        (BOOTSTRAP, "bootstrap_check_reference.json"),
        *((argv, f"{name}.txt") for name, argv in QUICK.items()),
        *((argv + ("--format", "json"), f"{name}.json") for name, argv in QUICK.items()),
        (BOOTSTRAP[:-2], "bootstrap_check_reference.txt"),
        (PLAN_EVENTS, "plan_events.txt"),
        (PLAN_EVENTS + ("--format", "json"), "plan_events.json"),
    ],
)
def test_stdout_matches_golden_fixture(capsys, argv, fixture):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode() == (DATA / fixture).read_bytes()


WARNED = {
    "estimate_summary": (
        ("estimate", "--summary", "535,0.535,0.861,0.900", "--beta", "0.5"),
        "precision and recall require record-level input; reported as n/a",
    ),
    "simulate_single": (
        ("simulate", "--n", "50", "--replications", "1", "--seed", "1", "--beta", "1"),
        "fewer than 2 usable replications; histogram diagnostics omitted",
    ),
}


@pytest.mark.parametrize(
    "fixture", [f"{name}.{suffix}" for name in WARNED for suffix in ("txt", "json")]
)
def test_a_report_with_a_warning_matches_golden_fixture(capsys, fixture):
    # The null fields of these reports print n/a in text and null in JSON.
    name, suffix = fixture.split(".")
    argv, warning = WARNED[name]
    code = main(list(argv) + (["--format", "json"] if suffix == "json" else []))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == f"warning: {warning}\n"
    assert captured.out.encode() == (DATA / fixture).read_bytes()


@pytest.mark.parametrize(
    "command", ["", "estimate", "ci", "plan", "bound-table", "simulate", "bootstrap-check"]
)
def test_help_screen_matches_golden_fixture(capsys, monkeypatch, command):
    # argparse wraps help to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    code = main([command, "--help"] if command else ["--help"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    fixture = f"help_{command.replace('-', '_')}.txt" if command else "help.txt"
    assert captured.out.encode() == (DATA / fixture).read_bytes()


def test_report_schemas_match_golden_fixture():
    # A required list is compared as a set: it need not follow the text order.
    from tverskyci.schemas import SCHEMAS_BY_COMMAND

    def canonical(schema):
        if isinstance(schema, dict):
            return {
                key: sorted(value) if key == "required" else canonical(value)
                for key, value in schema.items()
            }
        if isinstance(schema, list):
            return [canonical(value) for value in schema]
        return schema

    expected = json.loads((DATA / "schemas.json").read_text(encoding="utf-8"))
    assert canonical(SCHEMAS_BY_COMMAND) == canonical(expected)
