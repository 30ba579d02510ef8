"""Analytic standard errors, confidence intervals, and sample-size plans
for F-beta scores and Tversky indices, with a Monte Carlo harness that
verifies the formulas against simulation and against the bootstrap.
"""

from .errors import (
    DataError,
    DegenerateSampleError,
    InvalidParameterError,
    TverskyCIError,
    UsageError,
)
from .estimation import (
    ConfusionCounts,
    EstimateReport,
    SummaryStats,
    TverskyParams,
    asymptotic_variance,
    confidence_interval,
    fbeta_to_tversky,
    normal_cdf,
    normal_quantile,
    precision,
    recall,
    summarize,
    tversky_index,
    weighted_error_ratio,
)
from .ingest import ingest
from .planning import (
    PlanResult,
    VarianceBound,
    bound_table,
    planning_bound,
    required_events,
    required_total,
    variance_bound,
)

__version__ = "0.1.0"

__all__ = [
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


def __getattr__(name: str) -> object:
    if name in _SIMULATION_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
