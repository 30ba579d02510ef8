"""The mutation runner, tests/mutants.py, kept working on two mutants against
one fast test file: one that the file kills, and one listed as an equivalent
survivor. Both ids are found from the current source, so that an edit that
moves their lines does not break this test."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def test_ingest_mutants_run_the_ingest_tests_first():
    for module in ("ingest", "_split"):
        order = mutants.tests_for(module)
        assert order[0] == "tests/test_ingest.py"
        assert sorted(order) == sorted(f"tests/{name}" for name in mutants.FAST_FIRST)


@pytest.mark.parametrize(
    "returncode, stdout, status",
    [
        (0, b"....\n4 passed in 0.50s\n", "survived"),
        (0, b"4 passed, 1 warning in 61.02s (0:01:01)\n", "survived"),
        # The started process ended before any summary.
        (0, b"..", "killed"),
        # It exited 0, and a forked copy of it ran the rest and failed.
        (0, b"..F\n1 failed, 2 passed in 0.50s\n", "killed"),
        (0, b"1 error in 0.10s\n", "killed"),
        (1, b"4 passed in 0.50s\n", "killed"),
    ],
    ids=["passed", "passed with a warning", "no summary", "failed", "error", "exit 1"],
)
def test_a_mutant_survives_only_a_session_that_exits_0_after_a_clean_summary(
    returncode, stdout, status
):
    assert mutants.verdict(returncode, stdout) == status


# A session whose started process exits 0 at once, while a forked copy runs
# the rest of it, leaves a process behind and fails.
_FORKING_TESTS = """
import os
import time

_PID = os.getpid()


def test_the_started_process_exits_and_a_copy_goes_on():
    if os.fork():
        os._exit(0)


def test_the_copy_leaves_a_process_behind():
    pid = os.fork()
    if pid == 0:
        os.closerange(0, 256)  # so that the session's output can end
        time.sleep(60)
        os._exit(0)
    with open("left_behind", "w") as fh:
        fh.write(str(pid))


def test_the_copy_is_not_the_started_process():
    assert os.getpid() == _PID
"""


def _has_ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(") ")[2].startswith("Z")  # a zombie has ended
    except FileNotFoundError:
        return True


def test_a_mutant_whose_session_forks_is_killed_and_the_session_ended(tmp_path):
    module = tmp_path / "src" / "tverskyci" / "forks.py"
    module.parent.mkdir(parents=True)
    module.write_text("X = 0\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_forks.py").write_text(_FORKING_TESTS)
    result = mutants._run(tmp_path, "forks.py:1:0:Eq>NotEq", "X = 1\n", ["tests/test_forks.py"])
    assert result["status"] == "killed"
    assert module.read_text() == "X = 0\n"
    left_behind = int((tmp_path / "left_behind").read_text())
    deadline = time.monotonic() + 10
    while not _has_ended(left_behind) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _has_ended(left_behind)
