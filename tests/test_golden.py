"""Printed output pinned byte for byte against committed fixtures.

The fixtures in tests/data/ are the stdout of the README's reference
`simulate` and of the benchmark's 1M-resample `bootstrap-check`. A change
that alters a single printed digit of either fails here.
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


@pytest.mark.parametrize(
    "argv,fixture",
    [
        (SIMULATE + ("--format", "json"), "simulate_reference.json"),
        (SIMULATE, "simulate_reference.txt"),
        (BOOTSTRAP, "bootstrap_check_reference.json"),
    ],
)
def test_stdout_matches_golden_fixture(capsys, argv, fixture):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode() == (DATA / fixture).read_bytes()
