"""Every public callable of the package returns or raises a TverskyCIError
subclass, whatever it is given, and an error's message stays under 1 KiB."""

import inspect
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tverskyci
from tverskyci import (
    ConfusionCounts,
    InvalidParameterError,
    ScoreModel,
    SimulationConfig,
    SummaryStats,
    TverskyCIError,
    TverskyParams,
    bootstrap_se,
    confidence_interval,
    fbeta_to_tversky,
    histogram_summary,
    ingest,
    normal_cdf,
    normal_quantile,
    required_events,
    required_total,
    summarize,
)

_COUNTS = ConfusionCounts(30, 20, 10, 40)
_PARAMS = TverskyParams(0.5, 0.5)
_MODEL = ScoreModel(0.3, 2.5, 1.0)
_HUGE_INT = 10**5000  # str() refuses an int past 4300 digits
_MESSAGE_BYTES = 1024  # the most an error message may take
# Sizes (n, replications, resamples, bins) are small or so large that the
# call must fail fast; none is large enough to run for long.
_SIZES = [1, 2, 3, 30, 100, 200, 2**62, 2**63, 2**64, 10**400]
_POOL = [
    *_SIZES,
    *[-(10**400), -1, 0, 0.0, -0.0, 0.5, 1.0, 2.5, 1e308],
    *[math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2e-308],
    *[True, False, None, "", "0.5", "nan", "no such file", "a\0b"],
    *[np.float64(0.5), np.float64(math.nan), np.float32(0.25), np.int64(3), np.int64(-1)],
    *[np.uint64(2**64 - 1), np.bool_(True), np.array(0.5), np.array(2), np.array([])],
    *[np.zeros((0, 2)), np.array([[0.25, 0.5]]), [], [[]], [0.5, 0.75], [[0.5], [0.75]]],
    *[[0.5, math.nan], [0.5, "x"], [[0.5], 0.75], [-1e308, 1e308], {"z": 1}],
    # Values too long to echo whole in a message.
    *[_HUGE_INT, -_HUGE_INT, "y" * 2**20, [0.5] * 2**18],
    _COUNTS,
    ConfusionCounts(1, 0, 0, 2**62),
    ConfusionCounts(0, 5, 5, 5),
    _PARAMS,
    TverskyParams(1e-300, 1e300),
    summarize(_COUNTS, _PARAMS),
    _MODEL,
    ScoreModel(0.5, 0.0, 1e300),
    SimulationConfig(_MODEL, 20, 3, _PARAMS),
    SimulationConfig(_MODEL, 2**62, 2, _PARAMS, 0.5, 2**64 - 1),
    SimulationConfig(_MODEL, 20, 2**62, _PARAMS),
]


def _arity(function):
    """The fewest and most positional arguments function takes."""
    try:
        parameters = inspect.signature(function).parameters.values()
    except ValueError:  # an exception class
        return 0, 1
    return sum(p.default is p.empty for p in parameters), len(parameters)


_CALLABLES = [name for name in tverskyci.__all__ if callable(getattr(tverskyci, name))]


@pytest.mark.parametrize("name", _CALLABLES)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_every_public_callable_answers_or_raises_a_typed_error(name, data):
    function = getattr(tverskyci, name)
    fewest, most = _arity(function)
    k = data.draw(st.integers(fewest, most), label="arguments")
    args = data.draw(st.lists(st.sampled_from(_POOL), min_size=k, max_size=k), label="args")
    try:
        function(*args)
    except TverskyCIError as exc:
        assert len(str(exc).encode()) < _MESSAGE_BYTES


@pytest.mark.parametrize(
    "call",
    [
        lambda: SimulationConfig(_MODEL, _HUGE_INT, 1, _PARAMS),
        lambda: ConfusionCounts(-_HUGE_INT, 1, 1, 1),
        lambda: tverskyci.bootstrap_se(_COUNTS, _PARAMS, resamples=_HUGE_INT),
        lambda: tverskyci.histogram_summary([0.1, 0.2], bins=_HUGE_INT),
        lambda: _COUNTS.scaled(-_HUGE_INT),
        lambda: TverskyParams("y" * 2**20, 1.0),
        lambda: tverskyci.normal_cdf([0.5] * 2**18),
        lambda: tverskyci.ingest("y" * 2**20),
    ],
    ids=["n", "tp", "resamples", "bins", "k", "fp_weight", "x", "path"],
)
def test_a_value_too_long_to_echo_gives_a_short_message(call):
    with pytest.raises(TverskyCIError) as info:
        call()
    assert len(str(info.value).encode()) < _MESSAGE_BYTES


_MAX = 1.7976931348623157e308  # the largest float


def _ingest_one_row(threshold):
    """ingest of a one-row score file, in a folder removed afterwards."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "records.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("z,score\n1,0.5\n")
        return ingest(path, threshold=threshold)


@pytest.mark.parametrize(
    "call, accepted, rejected, message",
    [
        (lambda v: histogram_summary([0.25, 0.5], bins=v), 1, 0, "bins must be >= 1, got 0"),
        (
            lambda v: bootstrap_se(_COUNTS, _PARAMS, resamples=v),
            100,
            99,
            "resamples must be >= 100, got 99",
        ),
        (lambda v: bootstrap_se(_COUNTS, _PARAMS, 100, v), 0, -1, "seed must be >= 0, got -1"),
        (
            lambda v: bootstrap_se(_COUNTS, _PARAMS, 100, v),
            2**64 - 1,
            2**64,
            "seed must fit in 64 bits, got 18446744073709551616",
        ),
        (lambda v: SimulationConfig(_MODEL, v, 1, _PARAMS), 1, 0, "n must be >= 1, got 0"),
        (
            lambda v: SimulationConfig(_MODEL, 1, v, _PARAMS),
            1,
            -5,
            "replications must be >= 1, got -5",
        ),
        (
            lambda v: SimulationConfig(_MODEL, 1, 1, _PARAMS, seed=v),
            0,
            -1,
            "seed must be >= 0, got -1",
        ),
        (
            lambda v: SimulationConfig(_MODEL, 1, 1, _PARAMS, seed=v),
            2**64 - 1,
            2**64,
            "seed must fit in 64 bits, got 18446744073709551616",
        ),
        (lambda v: SummaryStats(v, 0.5, 0.5, 0.5), 1, 0, "n must be >= 1, got 0"),
        (lambda v: _COUNTS.scaled(v), 1, 0, "k must be >= 1, got 0"),
        (lambda v: ConfusionCounts(v, 0, 0, 1), 0, -1, "tp must be >= 0, got -1"),
        (
            lambda v: required_total(0.01, _PARAMS, v),
            1.0,
            1.0000000000000002,
            "prevalence must lie in (0, 1], got 1.0000000000000002",
        ),
        # Each real argument at the edge of its rule; beta's square is its edge.
        (
            lambda v: TverskyParams(v, 0.5),
            5e-324,
            0.0,
            "fp_weight must be finite and > 0, got 0.0",
        ),
        (
            lambda v: TverskyParams(0.5, v),
            _MAX,
            math.inf,
            "fn_weight must be finite and > 0, got inf",
        ),
        (
            fbeta_to_tversky,
            1.3407807929942596e154,
            1.3407807929942597e154,
            "beta 1.34078e+154 overflows when squared",
        ),
        (
            lambda v: SummaryStats(10, v, 0.5, 0.5),
            1.0,
            1.0000000000000002,
            "tp_rate must lie in [0, 1], got 1.0000000000000002",
        ),
        (
            lambda v: SummaryStats(10, 0.5, v, 0.5),
            5e-324,
            0.0,
            "tversky must lie in (0, 1], got 0.0",
        ),
        (
            lambda v: SummaryStats(10, 0.5, 0.5, v),
            1.0,
            1.0000000000000002,
            "tversky_sq must lie in (0, 1], got 1.0000000000000002",
        ),
        (
            lambda v: ScoreModel(v, 2.5, 1.0),
            0.9999999999999999,
            1.0,
            "prevalence must lie in (0, 1), got 1.0",
        ),
        (lambda v: ScoreModel(0.5, v, 1.0), _MAX, math.inf, "shift must be finite, got inf"),
        (
            lambda v: ScoreModel(0.5, 2.5, v),
            -_MAX,
            -math.inf,
            "threshold must be finite, got -inf",
        ),
        (
            lambda v: SimulationConfig(_MODEL, 1, 1, _PARAMS, v),
            5e-324,
            0.0,
            "level must lie in (0, 1), got 0.0",
        ),
        (
            lambda v: confidence_interval(_COUNTS, _PARAMS, v),
            0.9999999999999999,
            1.0,
            "level must lie in (0, 1), got 1.0",
        ),
        (normal_cdf, -_MAX, -math.inf, "x must be finite, got -inf"),
        (normal_quantile, 5e-324, 0.0, "p must lie in (0, 1), got 0.0"),
        (
            lambda v: required_events(v, _PARAMS),
            _MAX,
            math.inf,
            "delta must be finite and > 0, got inf",
        ),
        (_ingest_one_row, _MAX, math.inf, "threshold must be finite, got inf"),
    ],
    ids=[
        "bins",
        "resamples",
        "bootstrap-seed",
        "bootstrap-seed-bits",
        "n",
        "replications",
        "seed",
        "seed-bits",
        "summary-n",
        "k",
        "tp",
        "prevalence",
        "fp_weight",
        "fn_weight",
        "beta",
        "tp_rate",
        "tversky",
        "tversky_sq",
        "model-prevalence",
        "shift",
        "threshold",
        "simulation-level",
        "level",
        "x",
        "p",
        "delta",
        "ingest-threshold",
    ],
)
def test_a_bound_value_is_accepted_and_the_next_one_past_it_names_the_bound(
    call, accepted, rejected, message
):
    call(accepted)
    with pytest.raises(InvalidParameterError) as info:
        call(rejected)
    assert str(info.value) == message
