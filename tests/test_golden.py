"""Printed output pinned byte for byte against committed fixtures.

The fixtures in tests/data/ are the stdout of the README's reference
`simulate`, of the benchmark's 1M-resample `bootstrap-check`, and of one
`estimate`, two `ci`, one `plan` and the `bound-table` call in text and
JSON. A change that alters a single printed byte of any of them fails here.
"""

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


@pytest.mark.parametrize(
    "argv,fixture",
    [
        (SIMULATE + ("--format", "json"), "simulate_reference.json"),
        (SIMULATE, "simulate_reference.txt"),
        (BOOTSTRAP, "bootstrap_check_reference.json"),
        *((argv, f"{name}.txt") for name, argv in QUICK.items()),
        *((argv + ("--format", "json"), f"{name}.json") for name, argv in QUICK.items()),
    ],
)
def test_stdout_matches_golden_fixture(capsys, argv, fixture):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode() == (DATA / fixture).read_bytes()
