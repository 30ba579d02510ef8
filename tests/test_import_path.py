"""numpy is loaded only by simulate, bootstrap-check and the simulation API.

Each case runs in a fresh interpreter, because numpy stays in sys.modules
once any test in this process has imported it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_RUN_MAIN = """
import contextlib, io, sys
from tverskyci.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


def _python(code, *args, cwd=None):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("ci", "--counts", "300,60,40,600", "--format", "json"),
        ("ci", "--summary", "535,0.535,0.861,0.9", "--beta", "0.5"),
        ("ci", "--input", "records.csv"),
        ("estimate", "--counts", "30,20,10,40"),
        ("plan", "--delta", "0.02", "--ez", "0.3"),
        ("bound-table",),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_short_commands_never_import_numpy(tmp_path, argv):
    (tmp_path / "records.csv").write_text("z,a\n1,1\n1,0\n0,1\n0,0\n1,1\n", encoding="utf-8")
    assert _python(_RUN_MAIN, *argv, cwd=tmp_path) == ["0", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "50", "--replications", "20"),
        ("bootstrap-check", "--counts", "30,20,10,40", "--resamples", "1000"),
    ],
    ids=lambda argv: argv[0],
)
def test_simulation_commands_still_run(argv):
    assert _python(_RUN_MAIN, *argv) == ["0", "True"]


def test_every_exported_name_resolves():
    code = (
        "import sys, tverskyci\n"
        "print('numpy' in sys.modules)\n"
        "missing = [n for n in tverskyci.__all__ if getattr(tverskyci, n, None) is None]\n"
        "print(missing == [], 'numpy' in sys.modules)\n"
    )
    assert _python(code) == ["False", "True", "True"]
