"""Sizes whose arrays cannot be allocated are parameter errors (exit 4).

Every size here needs petabytes, beyond the process address space, so the
allocation fails at once and the tests allocate nothing.
"""

import pytest

from tverskyci import (
    ConfusionCounts,
    InvalidParameterError,
    ScoreModel,
    SimulationConfig,
    TverskyParams,
    bootstrap_se,
    run_simulation,
)
from tverskyci.cli import main
from tverskyci.simulation import histogram_summary


def test_bootstrap_resamples_beyond_memory():
    with pytest.raises(InvalidParameterError, match=r"resamples=10{15} needs 8\d{15} bytes"):
        bootstrap_se(ConfusionCounts(3, 1, 1, 1), TverskyParams(0.5, 0.5), resamples=10**15)


def test_replications_beyond_memory():
    # an estimate and an se per replication: 8 + 8 bytes
    config = SimulationConfig(ScoreModel(0.5, 2.5, 1.0), 5, 10**15, TverskyParams(0.5, 0.5))
    message = r"replications=10{15} needs at least 16\d{15} bytes"
    with pytest.raises(InvalidParameterError, match=message):
        run_simulation(config)


def test_histogram_bins_beyond_memory():
    with pytest.raises(InvalidParameterError, match=r"bins=10{15} needs at least 16\d{15} bytes"):
        histogram_summary([0.1, 0.2, 0.3], bins=10**15)


@pytest.mark.parametrize(
    "argv",
    [
        ("bootstrap-check", "--counts", "3,1,1,1", "--resamples", "1000000000000000"),
        ("simulate", "--n", "50", "--replications", "200", "--bins", "1000000000000000"),
        ("simulate", "--n", "5", "--replications", "1000000000000000"),
    ],
)
def test_unallocatable_sizes_are_exit_4(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("tverskyci: error: ") and captured.err.count("\n") == 1
    assert "bytes" in captured.err
