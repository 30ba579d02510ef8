"""Analytic standard errors, confidence intervals, and sample-size plans
for F-beta scores and Tversky indices, with a Monte Carlo harness that
verifies the formulas against simulation and against the bootstrap.
"""

import sys
from importlib import import_module

from . import errors, estimation
from .errors import *
from .estimation import *

__version__ = "0.1.0"

# The other modules load on first access to one of their public names:
# ingest (and json) for record files, planning for plan and bound-table,
# simulation (and numpy) for the Monte Carlo commands. Each list is its
# module's __all__.
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
        ("ingest", _INGEST_NAMES),
        ("planning", _PLANNING_NAMES),
        ("simulation", _SIMULATION_NAMES),
    )
    for name in names
}

__all__ = sorted([*errors.__all__, *estimation.__all__, *_LAZY])


def __getattr__(name: str) -> object:
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(type(sys)):
    def __setattr__(self, name: str, value: object) -> None:
        # Loading the submodule ingest binds it to this attribute; the public
        # name is its function, whichever import loads it first.
        if name == "ingest" and isinstance(value, type(sys)):
            value = value.ingest
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
