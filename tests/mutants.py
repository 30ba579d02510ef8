"""Mutation run: change one operator of a module at a time and run the tests.

A mutant that no test notices (it "survives") shows code the tests do not
pin; see DeMillo, Lipton & Sayward 1978 and Jia & Harman 2011. Each mutant
swaps one operator, found with ``ast``: ``+``/``-``, ``*``/``/``, ``**`` to
``*``, ``<``/``<=``, ``>``/``>=`` and ``==``/``!=``. The module is written
back with ``ast.unparse`` into a copy of ``src/``, ``tests/`` and what the
tests read (``demos/``, ``perfbench/``, ``pyproject.toml``) in a temporary
directory, one copy per worker; the checkout is never written. The test
files run with ``-x``, fast ones first (for ``cli`` and ``_commands``, the
golden and CLI tests; for ``ingest`` and ``_split``, the ingest tests), in
a session of their own whose processes are all ended afterwards. A mutant
survives only a session that exits 0 and ends with pytest's summary of
passes and no failure. One JSON line is printed per mutant.

    python tests/mutants.py estimation planning simulation --workers 2
    python tests/mutants.py cli _commands --workers 2
    python tests/mutants.py _split --workers 2
    python tests/mutants.py estimation --only 'estimation.py:103:10:Lt>LtE' \\
        --tests tests/test_records.py

Survivors that no test can kill are listed, each with its reason, in
tests/data/mutant_survivors.json. The full run is too slow for tier-1
(about 20 minutes on 2 workers for the three modules above).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml")
TIMEOUT = 600  # seconds per mutant; a swapped loop bound can hang
SWAPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Div,
    ast.Div: ast.Mult,
    ast.Pow: ast.Mult,
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}
# The tier-1 test files, fastest first, so that most mutants die early;
# test_mutation_runner.py, which runs this script, is left out.
FAST_FIRST = (
    "test_records.py",
    "test_estimation.py",
    "test_planning.py",
    "test_derivations.py",
    "test_library_inputs.py",
    "test_vectorized.py",
    "test_acceptance.py",
    "test_golden.py",
    "test_cli.py",
    "test_simulation.py",
    "test_fuzz.py",
    "test_memory_bounds.py",
    "test_demos.py",
    "test_import_path.py",
    "test_ingest.py",
)
# Files that kill a module's mutants fastest, run ahead of FAST_FIRST's
# order: the CLI's mutants change what the golden and CLI tests print.
FIRST = {
    "cli": ("test_golden.py", "test_cli.py"),
    "_commands": ("test_golden.py", "test_cli.py"),
}
FIRST["ingest"] = FIRST["_split"] = ("test_ingest.py",)


def tests_for(module: str) -> list[str]:
    """The tier-1 test files for a module's mutants, in the order they run."""
    first = FIRST.get(module, ())
    return [f"tests/{name}" for name in (*first, *(n for n in FAST_FIRST if n not in first))]


def _sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """Every operator that SWAPS changes, in source order: a BinOp, or one
    comparison of a Compare with its index."""
    sites: list[tuple[ast.AST, int | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            sites.append((node, None))
        elif isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
    return sorted(sites, key=lambda site: (site[0].lineno, site[0].col_offset, site[1] or 0))


def mutants(module: str) -> list[tuple[str, str]]:
    """(id, mutated source) of each mutant of src/tverskyci/<module>.py. An id
    is file:line:column:Old>New, at the end of the operator's left operand in
    the unmutated file."""
    name = f"{module}.py"
    source = (ROOT / "src" / "tverskyci" / name).read_text(encoding="utf-8")
    tree = ast.parse(source)
    out = []
    for node, position in _sites(tree):
        # Swap the operator, write the tree out, and put the operator back.
        if position is None:
            left, old = node.left, node.op
            node.op = new = SWAPS[type(old)]()
            mutated = ast.unparse(tree)
            node.op = old
        else:
            left, old = ([node.left, *node.comparators][position], node.ops[position])
            node.ops[position] = new = SWAPS[type(old)]()
            mutated = ast.unparse(tree)
            node.ops[position] = old
        where = f"{name}:{left.end_lineno}:{left.end_col_offset}"
        out.append((f"{where}:{type(old).__name__}>{type(new).__name__}", mutated))
    return out


def verdict(returncode: int, stdout: bytes) -> str:
    """"survived" if the session exited 0 and its last line is pytest's
    summary, with passes and no failure or error; else "killed". A mutant
    can make the started process exit 0 early while a forked copy of it
    runs the rest of the session: only the summary shows how that ended."""
    last = (stdout.decode(errors="replace").strip().splitlines() or [""])[-1]
    summary = re.fullmatch(r"(\d+ [a-z]+, )*\d+ [a-z]+ in [\d.]+s( \(.*\))?", last)
    words = set(re.findall(r"\d+ ([a-z]+)", last))
    clean = summary and "passed" in words and not words & {"failed", "error", "errors"}
    return "survived" if returncode == 0 and clean else "killed"


def _run(copy: Path, ident: str, source: str, tests: list[str]) -> dict:
    target = copy / "src" / "tverskyci" / ident.split(":")[0]
    original = target.read_text(encoding="utf-8")
    target.write_text(source, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "--tb=no", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    # A session of its own, so that what the mutant forks is ended with it.
    session = subprocess.Popen(
        command + tests,
        cwd=copy,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        stdout = session.communicate(timeout=TIMEOUT)[0]
        status = verdict(session.returncode, stdout)
    except subprocess.TimeoutExpired:
        status = "timeout"
    finally:
        try:
            os.killpg(session.pid, signal.SIGKILL)
        except ProcessLookupError:  # every process of the session has ended
            pass
        session.communicate()
        target.write_text(original, encoding="utf-8")
    return {"id": ident, "status": status, "seconds": round(time.perf_counter() - start, 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="modules of src/tverskyci to mutate")
    parser.add_argument("--workers", type=int, default=1, help="copies run at once (default 1)")
    parser.add_argument("--only", nargs="+", metavar="ID", help="run only these mutants")
    parser.add_argument(
        "--tests", nargs="+", metavar="FILE", help="test files (default: every tier-1 file)"
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    tests = [str(Path(t).resolve().relative_to(ROOT)) for t in args.tests or ()]
    todo = [
        (ident, source, tests or tests_for(module))
        for module in args.modules
        for ident, source in mutants(module)
    ]
    if args.only:
        missing = set(args.only) - {m[0] for m in todo}
        if missing:
            parser.error(f"no such mutant: {', '.join(sorted(missing))}")
        todo = [m for m in todo if m[0] in args.only]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copies: queue.Queue[Path] = queue.Queue()
        for worker in range(min(args.workers, len(todo)) or 1):
            copy = Path(scratch) / str(worker)
            for name in COPIED:
                source = ROOT / name
                if source.is_dir():
                    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
                    shutil.copytree(source, copy / name, ignore=skip)
                else:
                    shutil.copy2(source, copy / name)
            copies.put(copy)

        def run(mutant: tuple[str, str, list[str]]) -> dict:
            copy = copies.get()
            try:
                return _run(copy, *mutant)
            finally:
                copies.put(copy)

        with ThreadPoolExecutor(args.workers) as pool:
            for result in pool.map(run, todo):
                print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
