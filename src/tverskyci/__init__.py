"""Analytic standard errors, confidence intervals, and sample-size plans
for F-beta scores and Tversky indices, with a Monte Carlo harness that
verifies the formulas against simulation and against the bootstrap.
"""

# Each module lists its public names once, in its __all__. The ingest module
# is bound to a private name, as its wildcard import rebinds ``ingest``.
from . import errors, estimation, planning
from . import ingest as _ingest
from .errors import *
from .estimation import *
from .ingest import *
from .planning import *

__version__ = "0.1.0"

# The simulation names load numpy, so they are imported on first access only.
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

__all__ = sorted(
    [*errors.__all__, *estimation.__all__, *_ingest.__all__, *planning.__all__, *_SIMULATION_NAMES]
)


def __getattr__(name: str) -> object:
    if name in _SIMULATION_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
