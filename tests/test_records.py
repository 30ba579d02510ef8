"""The six estimation and planning records are named tuples whose constructor
checks its fields. These tests pin what the records promise: construction by
position or keyword, no way round the checks through _make or _replace, no
attribute assignment, pickle and copy round trips, and the error messages.
The four simulation records are frozen dataclasses, and refuse attribute
assignment with the same kind of error."""

import copy
import dataclasses
import pickle

import pytest

from tverskyci import (
    ConfusionCounts,
    EstimateReport,
    InvalidParameterError,
    PlanResult,
    SummaryStats,
    TverskyParams,
    VarianceBound,
)
from tverskyci.simulation import (
    HistogramSummary,
    ScoreModel,
    SimulationConfig,
    SimulationReport,
)

F05 = TverskyParams(0.8, 0.2)

# One valid value tuple per record, in field order.
RECORDS = [
    (ConfusionCounts, (286, 43, 46, 160)),
    (TverskyParams, (0.8, 0.2)),
    (SummaryStats, (535, 0.535, 0.861, 0.9)),
    (EstimateReport, (0.861, 0.14, 0.016, 0.032, 0.829, 0.893, 0.95, 535, False)),
    (VarianceBound, (0.8, 0.3, 2.9, 0.3, 0.205)),
    (PlanResult, (10250, 16667, 0.01, F05, 0.615)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]

# A field each validating record rejects, and the constructor's message for it.
INVALID_REPLACEMENTS = [
    (ConfusionCounts, {"tn": -1}, "tn must be >= 0, got -1"),
    (TverskyParams, {"fn_weight": 0}, "fn_weight must be finite and > 0, got 0.0"),
    (SummaryStats, {"tp_rate": 1.5}, "tp_rate must lie in [0, 1], got 1.5"),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_position == by_keyword == values
    assert type(by_keyword) is cls
    assert tuple(by_keyword) == values
    assert [getattr(by_keyword, name) for name in cls._fields] == list(values)
    assert by_keyword._asdict() == dict(zip(cls._fields, values))


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_replace_and_make_build_through_the_constructor(cls, values):
    record = cls(*values)
    name = cls._fields[0]
    replaced = record._replace(**{name: values[0]})
    assert type(replaced) is cls and replaced == record
    made = cls._make(values)
    assert type(made) is cls and made == record
    with pytest.raises(ValueError, match="unexpected field names"):
        record._replace(no_such_field=1)


@pytest.mark.parametrize(
    "cls, change, message",
    INVALID_REPLACEMENTS,
    ids=[cls.__name__ for cls, _, _ in INVALID_REPLACEMENTS],
)
def test_replace_and_make_run_the_checks(cls, change, message):
    values = dict(RECORDS)[cls]
    record = cls(*values)
    with pytest.raises(InvalidParameterError) as constructed:
        cls(**{**record._asdict(), **change})
    with pytest.raises(InvalidParameterError) as replaced:
        record._replace(**change)
    with pytest.raises(InvalidParameterError) as made:
        cls._make({**record._asdict(), **change}.values())
    assert str(constructed.value) == str(replaced.value) == str(made.value) == message


def test_replace_normalises_like_the_constructor():
    params = F05._replace(fp_weight=3)
    assert type(params.fp_weight) is float
    stats = SummaryStats(10, 1, 1, 1)._replace(n=20)
    assert [type(v) for v in stats] == [int, float, float, float]


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_records_reject_attribute_assignment(cls, values):
    record = cls(*values)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


SIMULATION_RECORDS = [
    ScoreModel(0.5, 2.5, 1.0),
    SimulationConfig(ScoreModel(0.5, 2.5, 1.0), 1000, 10, F05),
    SimulationReport(0.8, 0.8, 0.01, 0.01, 0.95, 0, estimates=None),
    HistogramSummary((1, 1), (0.0, 0.5, 1.0), None, None, 2),
]


@pytest.mark.parametrize(
    "record", SIMULATION_RECORDS, ids=[type(r).__name__ for r in SIMULATION_RECORDS]
)
def test_simulation_records_reject_attribute_assignment(record):
    # FrozenInstanceError is an AttributeError, as the named tuples raise
    name = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 1


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trips(cls, values, round_trip):
    record = cls(*values)
    again = round_trip(record)
    assert type(again) is cls
    assert again == record
    assert hash(again) == hash(record)


@pytest.mark.parametrize(
    "values, message",
    [
        ((-1, 1, 1, 1), "tp must be >= 0, got -1"),
        ((1, -1, 1, 1), "fn must be >= 0, got -1"),
        ((1, 1, -1, 1), "fp must be >= 0, got -1"),
        ((1, 1, 1, -1), "tn must be >= 0, got -1"),
        ((1.5, 1, 1, 1), "tp must be an integer, got 1.5"),
        ((1, True, 1, 1), "fn must be an integer, got True"),
        ((1, 1, "2", 1), "fp must be an integer, got '2'"),
        ((1, 1, 1, None), "tn must be an integer, got None"),
        ((0, 0, 0, 0), "confusion counts must total at least 1"),
    ],
)
def test_confusion_counts_messages(values, message):
    with pytest.raises(InvalidParameterError) as excinfo:
        ConfusionCounts(*values)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "values, message",
    [
        ((0, 0.5, 0.5, 0.5), "n must be >= 1, got 0"),
        ((-3, 0.5, 0.5, 0.5), "n must be >= 1, got -3"),
        ((2.0, 0.5, 0.5, 0.5), "n must be an integer, got 2.0"),
        pytest.param(
            (10**400, 0.5, 0.5, 0.5),
            f"n must fit in a float, got 1{'0' * 63}... (401 characters)",
            id="n-past-the-float-range",
        ),
        ((10, 1.5, 0.5, 0.5), "tp_rate must lie in [0, 1], got 1.5"),
        ((10, float("nan"), 0.5, 0.5), "tp_rate must lie in [0, 1], got nan"),
        ((10, -0.0001, 0.5, 0.5), "tp_rate must lie in [0, 1], got -0.0001"),
        ((10, 0.5, 0.0, 0.5), "tversky must lie in (0, 1], got 0.0"),
        ((10, 0.5, 1.01, 0.5), "tversky must lie in (0, 1], got 1.01"),
        ((10, 0.5, 0.5, 0.0), "tversky_sq must lie in (0, 1], got 0.0"),
        ((10, 0.5, 0.5, float("nan")), "tversky_sq must lie in (0, 1], got nan"),
        ((10, 0.5, 0.0, float("nan")), "tversky must lie in (0, 1], got 0.0"),
    ],
)
def test_summary_stats_messages(values, message):
    with pytest.raises(InvalidParameterError) as excinfo:
        SummaryStats(*values)
    assert str(excinfo.value) == message
