"""Each short command loads only the package modules it runs, and json only
for JSON; numpy is loaded only by simulate, bootstrap-check and the
simulation API; statistics (with fractions and decimal) by no command, and
numbers by none that leaves numpy unloaded; and no module for running other
processes, nor dataclasses and the inspect module it loads, by any short
command.

Each case runs in a fresh interpreter, because a module stays in sys.modules
once any test in this process has imported it.
"""

import importlib
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


# The package modules and json that each short command loads. Every one
# loads the package, the CLI and errors, and all but help the commands and
# estimation.
_CLI = {"tverskyci", "tverskyci.cli", "tverskyci.errors"}
_LOADED = "*sorted(m for m in sys.modules if m == 'json' or m.startswith('tverskyci'))"
_LOADS = {
    ("--help",): set(),
    ("ci", "--help"): set(),
    ("ci", "--counts", "300,60,40,600"): set(),
    ("ci", "--counts", "300,60,40,600", "--format", "json"): {"json"},
    ("ci", "--summary", "535,0.535,0.861,0.9", "--beta", "0.5"): set(),
    ("ci", "--summary", "535,0.535,0.861,0.9", "--beta", "0.5", "--format", "json"): {"json"},
    ("ci", "--input", "records.csv"): {"tverskyci.ingest"},
    ("ci", "--input", "records.jsonl"): {"tverskyci.ingest", "json"},
    ("estimate", "--counts", "30,20,10,40"): set(),
    ("estimate", "--counts", "30,20,10,40", "--format", "json"): {"json"},
    ("plan", "--delta", "0.02", "--ez", "0.3"): {"tverskyci.planning"},
    ("plan", "--delta", "0.02", "--format", "json"): {"tverskyci.planning", "json"},
    ("bound-table",): {"tverskyci.planning"},
}


@pytest.mark.parametrize("argv", _LOADS, ids=" ".join)
def test_each_short_command_loads_only_the_modules_it_runs(tmp_path, argv):
    (tmp_path / "records.csv").write_text("z,a\n1,1\n1,0\n0,1\n0,0\n", encoding="utf-8")
    (tmp_path / "records.jsonl").write_text('{"z": 1, "a": 1}\n{"z": 0, "a": 0}\n')
    code = _RUN_MAIN.replace('"numpy" in sys.modules', _LOADED)
    computing = set() if "--help" in argv else {"tverskyci._commands", "tverskyci.estimation"}
    assert _python(code, *argv, cwd=tmp_path) == ["0", *sorted(_CLI | computing | _LOADS[argv])]


@pytest.mark.parametrize(
    "argv",
    [("ci", "--level", "x"), ("ci", "--counts", "1,2,3"), ("plan",), ("bound-table", "--x")],
    ids=" ".join,
)
def test_a_usage_error_loads_no_estimation(argv):
    # Nor the commands: parsing stops before they load.
    code = _RUN_MAIN.replace('"numpy" in sys.modules', _LOADED)
    assert _python(code, *argv) == ["1", *sorted(_CLI)]


def test_no_command_loads_the_schemas():
    # The schema builder is in schemas, which only the tests load.
    commands = [
        ["estimate", "--counts", "30,20,10,40"],
        ["ci", "--counts", "300,60,40,600", "--format", "json"],
        ["plan", "--delta", "0.02", "--ez", "0.3"],
        ["bound-table", "--format", "json"],
        ["simulate", "--n", "50", "--replications", "20", "--format", "json"],
        ["bootstrap-check", "--counts", "30,20,10,40", "--resamples", "1000"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from tverskyci.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {commands!r}]\n"
        "print(*codes, 'tverskyci.schemas' in sys.modules)\n"
    )
    assert _python(code) == ["0"] * 6 + ["False"]


def test_importing_the_package_loads_only_errors():
    code = "import sys, tverskyci\nprint(*sorted(m for m in sys.modules if 'tverskyci' in m))"
    assert _python(code) == ["tverskyci", "tverskyci.errors"]


@pytest.mark.parametrize(
    "load",
    [
        "import tverskyci",
        "importlib.import_module('tverskyci.ingest')",
        "from tverskyci.cli import main; main(['ci', '--input', 'records.csv'])",
    ],
)
def test_the_package_name_ingest_is_always_the_function(tmp_path, load):
    # Loading the submodule binds it to the package attribute of the same name.
    (tmp_path / "records.csv").write_text("z,a\n1,1\n0,0\n", encoding="utf-8")
    code = (
        "import contextlib, importlib, io\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {load}\n"
        "import tverskyci\n"
        "print(type(tverskyci.ingest).__name__, tverskyci.ingest.__name__)\n"
    )
    assert _python(code, cwd=tmp_path) == ["function", "ingest"]


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
        ("--help",),
        ("estimate", "--counts", "30,20,10,40"),
        ("plan", "--delta", "0.02", "--ez", "0.3"),
        ("bound-table",),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_a_quantile_never_import_statistics(argv):
    # statistics pulls in fractions and decimal; only normal_quantile needs it.
    assert _python(_RUN_MAIN.replace("numpy", "statistics"), *argv) == ["0", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("ci", "--counts", "300,60,40,600"),
        ("ci", "--input", "records.csv"),
        ("estimate", "--counts", "30,20,10,40"),
        ("plan", "--delta", "0.02", "--ez", "0.3"),
        ("bound-table",),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_short_commands_never_import_process_modules(tmp_path, argv):
    # ingest forks its workers with os alone, from a module it imports only
    # for a file large enough to split; these would add to every start.
    (tmp_path / "records.csv").write_text("z,a\n1,1\n1,0\n0,1\n0,0\n", encoding="utf-8")
    modules = ("multiprocessing", "concurrent", "subprocess", "selectors", "tverskyci._split")
    code = _RUN_MAIN.replace('"numpy" in sys.modules', f"set({modules!r}).isdisjoint(sys.modules)")
    assert _python(code, *argv, cwd=tmp_path) == ["0", "True"]


def test_a_split_file_loads_only_the_split_module_more(tmp_path):
    # Ranges are read through io, which the interpreter loads at start, and
    # counted in workers forked with os; a split file of 2.2 MB on two CPUs
    # loads what a small file loads, and _split.
    rows = "1,1\n1,0\n0,1\n0,0\n"
    (tmp_path / "small.csv").write_text("z,a\n" + rows, encoding="utf-8")
    (tmp_path / "large.csv").write_text("z,a\n" + rows * 140_000, encoding="utf-8")
    code = (
        "import os\n"
        "fork, forks = os.fork, []\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
    ) + _RUN_MAIN.replace('"numpy" in sys.modules', "len(forks), *sorted(sys.modules)")
    code_small, forks_small, *small = _python(code, "ci", "--input", "small.csv", cwd=tmp_path)
    code_large, forks_large, *large = _python(code, "ci", "--input", "large.csv", cwd=tmp_path)
    assert (code_small, forks_small, code_large, forks_large) == ("0", "0", "0", "1")
    assert set(small) ^ set(large) == {"tverskyci._split"}


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("ci", "--counts", "300,60,40,600"),
        ("ci", "--summary", "535,0.535,0.861,0.9", "--beta", "0.5"),
        ("ci", "--input", "records.csv"),
        ("estimate", "--counts", "30,20,10,40"),
        ("plan", "--delta", "0.02", "--ez", "0.3"),
        ("bound-table",),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_short_commands_never_import_dataclasses(tmp_path, argv):
    # The estimation and planning records are named tuples; dataclasses
    # loads inspect, which no short command needs.
    (tmp_path / "records.csv").write_text("z,a\n1,1\n1,0\n0,1\n0,0\n", encoding="utf-8")
    modules = ("dataclasses", "inspect")
    code = _RUN_MAIN.replace('"numpy" in sys.modules', f"set({modules!r}).isdisjoint(sys.modules)")
    assert _python(code, *argv, cwd=tmp_path) == ["0", "True"]


def _which_loaded(modules):
    """_RUN_MAIN printing the exit code, then which of modules are loaded."""
    loaded = f"*sorted(set({modules!r}) & set(sys.modules))"
    return _RUN_MAIN.replace('"numpy" in sys.modules', loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("estimate", "--counts", "30,20,10,40"),
        ("ci", "--counts", "300,60,40,600", "--format", "json"),
        ("ci", "--input", "records.csv"),
        ("plan", "--delta", "0.02", "--ez", "0.3"),
        ("bound-table",),
        ("simulate", "--n", "50", "--replications", "20"),
        ("bootstrap-check", "--counts", "30,20,10,40", "--resamples", "1000"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_no_command_imports_statistics_fractions_or_decimal(tmp_path, argv):
    # The quantile comes from _statistics, the C module behind statistics.
    (tmp_path / "records.csv").write_text("z,a\n1,1\n1,0\n0,1\n0,0\n", encoding="utf-8")
    code = _which_loaded(("statistics", "fractions", "decimal"))
    assert _python(code, *argv, cwd=tmp_path) == ["0"]


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("estimate", "--counts", "30,20,10,40"),
        ("estimate", "--summary", "535,0.535,0.861,0.9", "--beta", "0.5", "--format", "json"),
        ("ci", "--counts", "300,60,40,600"),
        ("ci", "--summary", "535,0.535,0.861,0.9", "--beta", "0.5"),
        ("ci", "--input", "records.csv", "--mode", "score", "--threshold", "0.3"),
        ("plan", "--delta", "0.02", "--ez", "0.3"),
        ("bound-table",),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_commands_without_numpy_never_import_numbers(tmp_path, argv):
    # The validators test int and float before the numbers ABCs.
    (tmp_path / "records.csv").write_text("z,score\n1,0.9\n0,0.1\n", encoding="utf-8")
    assert _python(_which_loaded(("numbers", "numpy")), *argv, cwd=tmp_path) == ["0"]


def test_the_quantile_falls_back_to_normaldist_without_its_c_module():
    code = (
        "import sys\n"
        "sys.modules['_statistics'] = None\n"
        "from tverskyci import normal_quantile\n"
        "ps = [k / 1000 for k in range(1, 1000)] + [1e-300, 0.5 - 1e-16, 1 - 1e-16]\n"
        "got = [normal_quantile(p).hex() for p in ps]\n"
        "print('statistics' in sys.modules)\n"
        "from statistics import NormalDist\n"
        "print(got == [NormalDist().inv_cdf(p).hex() for p in ps])\n"
    )
    assert _python(code) == ["True", "True"]


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


def test_the_lazy_ingest_names_are_the_ingest_modules_list():
    import tverskyci

    ingest = importlib.import_module("tverskyci.ingest")  # the package exports the function
    assert tverskyci._INGEST_NAMES == set(ingest.__all__)


def test_the_lazy_planning_names_are_the_planning_modules_list():
    import tverskyci
    from tverskyci import planning

    assert tverskyci._PLANNING_NAMES == set(planning.__all__)


def test_the_lazy_simulation_names_are_the_simulation_modules_list():
    # The one public-name list written twice: numpy loads with the module.
    import tverskyci
    from tverskyci import simulation

    assert tverskyci._SIMULATION_NAMES == set(simulation.__all__)


def test_the_public_api_is_unchanged():
    import tverskyci

    assert tverskyci.__all__ == [
        "ConfusionCounts",
        "DataError",
        "DegenerateSampleError",
        "EstimateReport",
        "HistogramSummary",
        "InvalidParameterError",
        "PlanResult",
        "ScoreModel",
        "SimulationConfig",
        "SimulationReport",
        "SummaryStats",
        "TverskyCIError",
        "TverskyParams",
        "UsageError",
        "VarianceBound",
        "asymptotic_variance",
        "bootstrap_se",
        "bound_table",
        "confidence_interval",
        "fbeta_to_tversky",
        "histogram_summary",
        "ingest",
        "normal_cdf",
        "normal_quantile",
        "planning_bound",
        "population_index",
        "population_variance",
        "precision",
        "recall",
        "replication_estimates",
        "required_events",
        "required_total",
        "run_simulation",
        "summarize",
        "tversky_index",
        "variance_bound",
        "weighted_error_ratio",
    ]
