"""Analytic standard errors, confidence intervals, and sample-size plans
for F-beta scores and Tversky indices, with a Monte Carlo harness that
verifies the formulas against simulation and against the bootstrap.
"""

import sys
from importlib import import_module

from . import errors
from .errors import *

__version__ = "0.1.0"

# The record-file modes of ingest, here so the CLI can offer them without
# loading a module.
MODES = ("auto", "prediction", "score")

# Every module but errors loads on first access to one of its public names:
# estimation for the estimators, ingest (and json) for record files,
# planning for plan and bound-table, simulation (and numpy) for the Monte
# Carlo commands. Each list is its module's __all__.
_ESTIMATION_NAMES = {
    "ConfusionCounts",
    "EstimateReport",
    "SummaryStats",
    "TverskyParams",
    "asymptotic_variance",
    "confidence_interval",
    "fbeta_to_tversky",
    "normal_cdf",
    "normal_quantile",
    "precision",
    "recall",
    "summarize",
    "tversky_index",
    "weighted_error_ratio",
}
_INGEST_NAMES = {"ingest"}
_PLANNING_NAMES = {
    "PlanResult",
    "VarianceBound",
    "bound_table",
    "planning_bound",
    "required_events",
    "required_total",
    "variance_bound",
}
_SIMULATION_NAMES = {
    "HistogramSummary",
    "ScoreModel",
    "SimulationConfig",
    "SimulationReport",
    "bootstrap_se",
    "histogram_summary",
    "population_index",
    "population_variance",
    "replication_estimates",
    "run_simulation",
}
_LAZY = {
    name: module
    for module, names in (
        ("estimation", _ESTIMATION_NAMES),
        ("ingest", _INGEST_NAMES),
        ("planning", _PLANNING_NAMES),
        ("simulation", _SIMULATION_NAMES),
    )
    for name in names
}

__all__ = sorted([*errors.__all__, *_LAZY])


def __getattr__(name: str) -> object:
    if name in _LAZY:
        # Kept once found, so that a later access is a plain attribute lookup.
        value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(type(sys)):
    def __setattr__(self, name: str, value: object) -> None:
        # Loading the submodule ingest binds it to this attribute; the public
        # name is its function, whichever import loads it first.
        if name == "ingest" and isinstance(value, type(sys)):
            value = value.ingest
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
