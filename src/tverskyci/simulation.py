"""Monte Carlo harness and bootstrap oracle for the analytic formulas.

The synthetic data model is a two-component Gaussian score: a binary label
with prevalence ``prevalence`` and a score S ~ Normal(shift * label, 1)
thresholded into a prediction I(S > threshold). The implied joint cell
probabilities are::

    P(pred=1 | label=1) = normal_cdf(shift - threshold)
    P(pred=1 | label=0) = normal_cdf(-threshold)

Replications draw the four confusion cells directly from those
probabilities (a multinomial draw of n records has exactly the same joint
law as n latent-score draws, and every statistic here depends on the cells
only). Each replication uses its own counter-based random stream keyed on
(seed, replication index), so results are bitwise reproducible no matter
how replications are scheduled, and aggregation reads per-replication
arrays in index order. One Philox serves every replication, re-keyed to
(seed, i) with the rest of its state reset: the same streams as a fresh
Philox(key=[seed, i]) each, without building one per replication. The
intervals of all replications are then computed in one vectorized pass.

The nonparametric bootstrap here is a verification oracle for the analytic
standard error, not an alternative product feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSampleError, InvalidParameterError
from .estimation import (
    ConfusionCounts,
    TverskyParams,
    _error_ratio,
    _require_count,
    _require_open_unit,
    _summary_variance,
    _variance_kernel,
    normal_cdf,
    normal_quantile,
)

__all__ = [
    "ScoreModel",
    "SimulationConfig",
    "SimulationReport",
    "HistogramSummary",
    "population_index",
    "population_variance",
    "run_simulation",
    "replication_estimates",
    "bootstrap_se",
    "histogram_summary",
]

def _require_bits(value: object, name: str, bits: int) -> int:
    # Seeds key Philox as uint64; sizes and trial counts reach numpy as int64.
    out = _require_count(value, name)
    if out >= 2**bits:
        raise InvalidParameterError(f"{name} must fit in {bits} bits, got {out}")
    return out


# ---------------------------------------------------------------------------
# generative model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScoreModel:
    """Gaussian score model: label ~ Bernoulli(prevalence), score
    S ~ Normal(shift * label, 1), prediction = I(S > threshold)."""

    prevalence: float
    shift: float
    threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "prevalence", _require_open_unit(self.prevalence, "prevalence"))
        for name in ("shift", "threshold"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def cell_probabilities(self) -> tuple[float, float, float, float]:
        """(tp, fn, fp, tn) probabilities; pairs sum exactly to the class
        masses so the four cells total 1 to within one rounding."""
        hit = normal_cdf(self.shift - self.threshold)
        false_alarm = normal_cdf(-self.threshold)
        p_tp = self.prevalence * hit
        p_fp = (1.0 - self.prevalence) * false_alarm
        return (
            p_tp,
            self.prevalence - p_tp,
            p_fp,
            (1.0 - self.prevalence) - p_fp,
        )


def population_index(model: ScoreModel, params: TverskyParams) -> float:
    """Population Tversky index implied by the model's cell probabilities.

    Closed form, so simulation baselines carry no sampling error of their
    own.
    """
    p_tp, p_fn, p_fp, _ = model.cell_probabilities
    if p_tp <= 0.0:
        raise DegenerateSampleError("model gives zero true-positive probability")
    ratio = (params.fp_weight * p_fp + params.fn_weight * p_fn) / p_tp
    return 1.0 / (1.0 + ratio)


def population_variance(model: ScoreModel, params: TverskyParams) -> float:
    """Population per-observation variance implied by the model."""
    p_tp, p_fn, p_fp, _ = model.cell_probabilities
    if p_tp <= 0.0:
        raise DegenerateSampleError("model gives zero true-positive probability")
    squared = params.squared()
    r1 = (params.fp_weight * p_fp + params.fn_weight * p_fn) / p_tp
    r2 = (squared.fp_weight * p_fp + squared.fn_weight * p_fn) / p_tp
    index = 1.0 / (1.0 + r1)
    return float(_variance_kernel(r1, r2, index, p_tp))


# ---------------------------------------------------------------------------
# replicated experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """One replicated experiment: draw ``replications`` datasets of ``n``
    records from ``model``, estimate with ``params``, and build level-
    ``level`` intervals. ``seed`` keys every random stream."""

    model: ScoreModel
    n: int
    replications: int
    params: TverskyParams
    level: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.model, ScoreModel):
            raise InvalidParameterError("model must be a ScoreModel")
        if not isinstance(self.params, TverskyParams):
            raise InvalidParameterError("params must be a TverskyParams")
        n = _require_bits(self.n, "n", 63)
        reps = _require_bits(self.replications, "replications", 63)
        if n < 1 or reps < 1:
            raise InvalidParameterError("n and replications must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "replications", reps)
        object.__setattr__(self, "level", _require_open_unit(self.level, "level"))
        object.__setattr__(self, "seed", _require_bits(self.seed, "seed", 64))


@dataclass(frozen=True, slots=True)
class SimulationReport:
    """Aggregates over the non-degenerate replications.

    ``coverage`` is the fraction of intervals containing ``true_value``;
    ``sd_estimates`` is the spread of the point estimates (0.0 when fewer
    than two replications survive) and ``mean_se`` the average analytic
    standard error, so their ratio measures how well the formula tracks
    the true spread. Replications with no true positives are excluded and
    counted in ``degenerate_count``. ``estimates`` holds the kept point
    estimates in replication order; it takes no part in equality.
    """

    true_value: float
    mean_estimate: float
    sd_estimates: float
    mean_se: float
    coverage: float
    degenerate_count: int
    estimates: np.ndarray = field(compare=False, repr=False)


def _intervals(
    cells: np.ndarray, params: TverskyParams, level: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Estimate, se and clipped interval endpoints for each row of a (k, 4)
    int64 array of (tp, fn, fp, tn) counts with tp >= 1: the same bits
    confidence_interval gives for each row as ConfusionCounts."""
    totals = cells.sum(axis=1)
    if np.any(cells < 0) or np.any(totals < 1):
        raise InvalidParameterError("confusion counts must be >= 0 and total at least 1")
    tp, fn, fp = cells[:, 0], cells[:, 1], cells[:, 2]
    # Python's int / int rounds once, as ConfusionCounts.tp_rate does; int64
    # division rounds both operands to float64 first, which differs past 2**53.
    tp_rate = (tp.astype(object) / totals.astype(object)).astype(float)
    # Overflow to inf or nan is expected here: _summary_variance raises on it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        estimate = 1.0 / (1.0 + _error_ratio(tp, fn, fp, params))
        estimate_sq = 1.0 / (1.0 + _error_ratio(tp, fn, fp, params.squared()))
        variance = _summary_variance(estimate, estimate_sq, tp_rate, params)
    se = np.sqrt(variance / totals)
    half_width = normal_quantile(0.5 * (1.0 + level)) * se
    lower, upper = np.maximum(0.0, estimate - half_width), np.minimum(1.0, estimate + half_width)
    return estimate, se, lower, upper


def _draw(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    pvals = np.array(config.model.cell_probabilities)
    true_value = population_index(config.model, config.params)
    reps = config.replications
    bit_generator = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    fresh = bit_generator.state
    key = fresh["state"]["key"]
    generator = np.random.Generator(bit_generator)
    try:
        cells = np.empty((reps, 4), dtype=np.int64)
    except MemoryError:
        raise InvalidParameterError(
            f"replications={reps} needs at least {32 * reps} bytes of memory for the "
            "drawn cells, more than can be allocated"
        ) from None
    for i in range(reps):
        key[1] = i
        bit_generator.state = fresh
        cells[i] = generator.multinomial(config.n, pvals)
    degenerate = cells[:, 0] == 0
    kept = ~degenerate
    estimates = np.full(reps, np.nan)
    ses = np.full(reps, np.nan)
    covered = np.zeros(reps, dtype=bool)
    estimates[kept], ses[kept], lower, upper = _intervals(
        cells[kept], config.params, config.level
    )
    covered[kept] = (lower <= true_value) & (true_value <= upper)
    return estimates, ses, covered, degenerate


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run the replicated experiment and aggregate.

    Deterministic given (seed, config): replication i always draws from
    the stream keyed (seed, i), and aggregation reads the per-replication
    arrays in index order.
    """
    estimates, ses, covered, degenerate = _draw(config)
    kept = ~degenerate
    estimates = estimates[kept]
    if estimates.size == 0:
        raise DegenerateSampleError(
            f"all {config.replications} replications were degenerate (no true positives)"
        )
    return SimulationReport(
        true_value=population_index(config.model, config.params),
        mean_estimate=float(estimates.mean()),
        sd_estimates=float(estimates.std(ddof=1)) if estimates.size >= 2 else 0.0,
        mean_se=float(ses[kept].mean()),
        coverage=float(covered[kept].mean()),
        degenerate_count=int(degenerate.sum()),
        estimates=estimates,
    )


def replication_estimates(config: SimulationConfig) -> np.ndarray:
    """Point estimates of the non-degenerate replications, in replication
    order; the same draws run_simulation aggregates."""
    estimates, _, _, degenerate = _draw(config)
    return estimates[~degenerate]


# ---------------------------------------------------------------------------
# bootstrap oracle
# ---------------------------------------------------------------------------

_BOOTSTRAP_CHUNK = 2**16


def bootstrap_se(
    counts: ConfusionCounts,
    params: TverskyParams,
    resamples: int = 100_000,
    seed: int = 0,
) -> float:
    """Nonparametric bootstrap standard error of the index.

    Each resample redraws the four cells from a multinomial at the
    observed proportions and recomputes the index; the returned value is
    the standard deviation of the resampled indices. Resamples with no
    true positives are skipped; more than half of them degenerate is an
    error. Resamples are drawn in chunks, so memory is the kept indices,
    8 bytes per resample, plus one chunk.
    """
    if not isinstance(counts, ConfusionCounts):
        raise InvalidParameterError("counts must be a ConfusionCounts")
    resamples = _require_bits(resamples, "resamples", 63)
    if resamples < 100:
        raise InvalidParameterError(f"resamples must be >= 100, got {resamples}")
    seed = _require_bits(seed, "seed", 64)
    if counts.tp == 0:
        raise DegenerateSampleError("sample has no true positives; nothing to resample")
    n = _require_bits(counts.n, "total count", 63)
    pvals = np.array([counts.tp, counts.fn, counts.fp, counts.tn]) / n
    try:
        indices = np.empty(resamples)
    except MemoryError:
        raise InvalidParameterError(
            f"resamples={resamples} needs {8 * resamples} bytes of memory, "
            "more than can be allocated"
        ) from None
    rng = np.random.default_rng(seed)
    size = 0
    # Successive chunks consume the stream exactly as one draw of all rows.
    for start in range(0, resamples, _BOOTSTRAP_CHUNK):
        draws = rng.multinomial(n, pvals, size=min(_BOOTSTRAP_CHUNK, resamples - start))
        tp = draws[:, 0].astype(float)
        kept = tp > 0
        errors = params.fp_weight * draws[kept, 2] + params.fn_weight * draws[kept, 1]
        kept_indices = tp[kept] / (tp[kept] + errors)
        indices[size : size + kept_indices.size] = kept_indices
        size += kept_indices.size
    skipped = resamples - size
    if 2 * skipped > resamples:
        raise DegenerateSampleError(
            f"{skipped} of {resamples} resamples were degenerate (no true positives)"
        )
    return float(indices[:size].std(ddof=1))


# ---------------------------------------------------------------------------
# distribution diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HistogramSummary:
    """Equal-width bin counts plus moment diagnostics of a sample of
    estimates. Skewness and excess kurtosis are None where they are
    undefined: a constant sample, or a spread whose moments underflow."""

    counts: tuple[int, ...]
    edges: tuple[float, ...]
    skewness: float | None
    excess_kurtosis: float | None
    n: int


def histogram_summary(estimates: object, bins: int = 30) -> HistogramSummary:
    """Bin the estimates over [min, max] and report shape diagnostics.

    An asymptotically normal estimator should show skewness and excess
    kurtosis near zero at scale.
    """
    bins = _require_count(bins, "bins")
    if bins < 1:
        raise InvalidParameterError("bins must be >= 1")
    values = np.asarray(estimates, dtype=float)
    if values.ndim != 1:
        values = values.ravel()
    if values.size < 2:
        raise InvalidParameterError("need at least 2 estimates to summarize")
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError("estimates must all be finite")
    try:
        counts, edges = np.histogram(values, bins=bins)
    except MemoryError:
        raise InvalidParameterError(
            f"bins={bins} needs at least {16 * bins} bytes of memory for the bin "
            "counts and edges, more than can be allocated"
        ) from None
    skewness = excess_kurtosis = None
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    # A constant sample has no spread, and one whose moments underflow
    # cannot be normalised; don't let rounding residue masquerade as moments.
    if values.min() < values.max() and m2**2 > 0.0:
        skewness = float(np.mean(centered**3)) / m2**1.5
        excess_kurtosis = float(np.mean(centered**4)) / m2**2 - 3.0
    return HistogramSummary(
        counts=tuple(int(c) for c in counts),
        edges=tuple(float(e) for e in edges),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        n=int(values.size),
    )
