"""The mutation runner, tests/mutants.py, kept working on two mutants against
one fast test file: one that the file kills, and one listed as an equivalent
survivor. Both ids are found from the current source, so that an edit that
moves their lines does not break this test."""

import json
import subprocess
import sys
from pathlib import Path

from tests import mutants

ROOT = Path(__file__).resolve().parent.parent


def _mutant_id(module: str, line_text: str, swap: str) -> str:
    """The id of the one mutant that applies `swap` on the line holding `line_text`."""
    lines = (ROOT / "src" / "tverskyci" / f"{module}.py").read_text(encoding="utf-8").splitlines()
    (lineno,) = [number for number, line in enumerate(lines, 1) if line_text in line]
    (ident,) = [
        ident
        for ident, _ in mutants.mutants(module)
        if ident.split(":")[1] == str(lineno) and ident.endswith(f":{swap}")
    ]
    return ident


def test_the_runner_kills_a_mutant_and_lets_an_equivalent_one_survive():
    killed = _mutant_id("estimation", "if out < least:", "Lt>LtE")  # rejects a count of 0
    equivalent = _mutant_id("planning", "if m < 1.0 else", "Lt>LtE")  # m == 1.0 returned before
    sources = {path: path.read_bytes() for path in (ROOT / "src" / "tverskyci").glob("*.py")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "mutants.py"), "estimation", "planning"]
        + ["--workers", "2", "--only", killed, equivalent, "--tests", "tests/test_records.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    statuses = {line["id"]: line["status"] for line in map(json.loads, result.stdout.splitlines())}
    assert statuses == {killed: "killed", equivalent: "survived"}
    survivors = json.loads((ROOT / "tests" / "data" / "mutant_survivors.json").read_text())
    assert any(survivor["reason"].startswith("variance_bound: ") for survivor in survivors)
    # The mutants were written into a copy, never into the checkout.
    assert {path: path.read_bytes() for path in sources} == sources


def test_every_listed_survivor_is_a_current_mutant():
    # Ids name source lines, so an edit that moves a line leaves its id stale.
    survivors = json.loads((ROOT / "tests" / "data" / "mutant_survivors.json").read_text())
    listed = {survivor["id"] for survivor in survivors}
    modules = {ident.split(".py:")[0] for ident in listed}
    current = {ident for module in modules for ident, _ in mutants.mutants(module)}
    assert sorted(listed - current) == []


def test_cli_mutants_run_the_golden_and_cli_tests_first():
    default = [f"tests/{name}" for name in mutants.FAST_FIRST]
    assert mutants.tests_for("estimation") == default
    for module in ("cli", "_commands"):
        order = mutants.tests_for(module)
        assert order[:2] == ["tests/test_golden.py", "tests/test_cli.py"]
        assert sorted(order) == sorted(default)
