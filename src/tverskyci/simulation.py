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
replications with a true positive are kept, and their intervals are
computed in one vectorized pass per chunk of replications. Only what the
report needs is kept: each estimate and se, 16 bytes per replication, a
count of the covered ones, and one chunk's cells and interval temporaries.

The nonparametric bootstrap here is a verification oracle for the analytic
standard error, not an alternative product feature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _SIMULATION_NAMES
from .errors import DegenerateSampleError, InvalidParameterError
from .estimation import (
    ConfusionCounts,
    TverskyParams,
    _critical_value,
    _error_ratio,
    _phi,
    _quote,
    _require_count,
    _require_real,
    _require_type,
    _tversky_and_variance,
)

__all__ = sorted(_SIMULATION_NAMES)


# ---------------------------------------------------------------------------
# generative model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreModel:
    """Gaussian score model: label ~ Bernoulli(prevalence), score
    S ~ Normal(shift * label, 1), prediction = I(S > threshold)."""

    prevalence: float
    shift: float
    threshold: float

    def __post_init__(self) -> None:
        rules = {"prevalence": "lie in (0, 1)", "shift": "be finite", "threshold": "be finite"}
        for name, rule in rules.items():
            object.__setattr__(self, name, _require_real(getattr(self, name), name, rule))

    @property
    def cell_probabilities(self) -> tuple[float, float, float, float]:
        """(tp, fn, fp, tn) probabilities; pairs sum exactly to the class
        masses so the four cells total 1 to within one rounding. shift -
        threshold may overflow to an infinity, whose probability is 0 or 1."""
        hit = _phi(self.shift - self.threshold)
        false_alarm = _phi(-self.threshold)
        p_tp = self.prevalence * hit
        p_fp = (1.0 - self.prevalence) * false_alarm
        return (
            p_tp,
            self.prevalence - p_tp,
            p_fp,
            (1.0 - self.prevalence) - p_fp,
        )


def _positive_cells(model: ScoreModel) -> tuple[float, float, float]:
    """The model's (tp, fn, fp) probabilities, which must give true positives."""
    _require_type(model, ScoreModel, "model")
    p_tp, p_fn, p_fp, _ = model.cell_probabilities
    if p_tp <= 0.0:
        raise DegenerateSampleError("model gives zero true-positive probability")
    return p_tp, p_fn, p_fp


def population_index(model: ScoreModel, params: TverskyParams) -> float:
    """Population Tversky index implied by the model's cell probabilities.

    Closed form, so simulation baselines carry no sampling error of their
    own.
    """
    return 1.0 / (1.0 + _error_ratio(*_positive_cells(model), params))


def population_variance(model: ScoreModel, params: TverskyParams) -> float:
    """Population per-observation variance implied by the model."""
    cells = _positive_cells(model)
    return _tversky_and_variance(*cells, cells[0], params)[1]


# ---------------------------------------------------------------------------
# replicated experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
        _require_type(self.model, ScoreModel, "model")
        _require_type(self.params, TverskyParams, "params")
        # Seeds key Philox as uint64; sizes and trial counts reach numpy as int64.
        for name in ("n", "replications"):
            object.__setattr__(self, name, _require_count(getattr(self, name), name, 1, 63))
        object.__setattr__(self, "level", _require_real(self.level, "level", "lie in (0, 1)"))
        object.__setattr__(self, "seed", _require_count(self.seed, "seed", bits=64))


@dataclass(frozen=True)
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


# Rows per chunk of replications or resamples. A replication row takes about
# 180 bytes of cells and interval temporaries (1.5 MB a chunk), a resample
# row about 90 bytes of draws and temporaries (0.7 MB). The size changes no
# printed bit.
_CHUNK = 2**13


def _intervals(
    cells: np.ndarray, n: int, params: TverskyParams, level: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Estimate, se and clipped interval endpoints for each row of a (k, 4)
    int64 array of (tp, fn, fp, tn) counts with tp >= 1 that each total n:
    the same bits confidence_interval gives for each row as ConfusionCounts."""
    tp, fn, fp = cells[:, 0], cells[:, 1], cells[:, 2]
    # ConfusionCounts.tp_rate is Python's int / int, which rounds once. Up to
    # 2**53 both operands are exact in float64, so float64 division agrees;
    # past it, int64 division would round each operand first.
    tp_rate = tp / n if n <= 2**53 else (tp.astype(object) / n).astype(float)
    # Overflow to inf or nan is expected here; the variance kernel raises on it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        estimate, variance = _tversky_and_variance(tp, fn, fp, tp_rate, params)
    se = np.sqrt(variance / n)
    half_width = _critical_value(level) * se
    lower, upper = np.maximum(0.0, estimate - half_width), np.minimum(1.0, estimate + half_width)
    return estimate, se, lower, upper


def _empty(size: int, need: str) -> np.ndarray:
    """np.empty(size), or an InvalidParameterError saying what the array needs."""
    try:
        return np.empty(size)
    except (MemoryError, ValueError):  # ValueError: larger than the address space
        raise InvalidParameterError(f"{need}, more than can be allocated") from None


def _draw(config: SimulationConfig) -> tuple[float, np.ndarray, np.ndarray, int]:
    """The population index, the estimate and se of each replication with a
    true positive, in replication order, and how many of their intervals
    cover the index.

    Replications are drawn and estimated one chunk at a time into one reused
    cell buffer. A variance that overflows is nan, never inf (an infinite
    numerator comes with t**4 = 0), so the first chunk that has one raises
    the message a pass over every replication would."""
    _require_type(config, SimulationConfig, "config")
    true_value = population_index(config.model, config.params)  # its error comes first
    n, pvals, reps = config.n, np.array(config.model.cell_probabilities), config.replications
    bit_generator = np.random.Philox(key=np.array([config.seed, 0], dtype=np.uint64))
    fresh = bit_generator.state
    # Python lists, not arrays, so the state setter reads no numpy scalars
    fresh["state"] = {name: value.tolist() for name, value in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    generator = np.random.Generator(bit_generator)
    need = f"replications={reps} needs at least {16 * reps} bytes of memory for the "
    need += "estimates and standard errors"
    estimates, ses = _empty(reps, need), _empty(reps, need)
    cells = np.empty((min(_CHUNK, reps), 4), dtype=np.int64)
    size = covered = 0
    for start in range(0, reps, _CHUNK):
        block = cells[: min(_CHUNK, reps - start)]
        for i in range(start, start + len(block)):
            key[1] = i
            bit_generator.state = fresh
            block[i - start] = generator.multinomial(n, pvals)
        estimate, se, lower, upper = _intervals(
            block[block[:, 0] > 0], n, config.params, config.level
        )
        stop = size + estimate.size
        estimates[size:stop], ses[size:stop] = estimate, se
        covered += int(np.count_nonzero((lower <= true_value) & (true_value <= upper)))
        size = stop
    return true_value, estimates[:size], ses[:size], covered


def _moment(values: np.ndarray, k: int, out: np.ndarray, ddof: int = 0) -> float:
    """sum((values - values.mean())**k) / (size - ddof) in numpy's own steps:
    the bits of values.var(ddof=ddof) for k = 2, and of
    np.mean((values - values.mean())**k) for ddof = 0. ``out``, of the same
    size (values itself if values may be overwritten), is the only
    temporary: **= dispatches as ** does."""
    np.subtract(values, np.add.reduce(values) / values.size, out=out)
    out **= k
    return float(np.add.reduce(out) / (values.size - ddof))


def run_simulation(config: SimulationConfig) -> SimulationReport:
    """Run the replicated experiment and aggregate.

    Deterministic given (seed, config): replication i always draws from
    the stream keyed (seed, i), and aggregation reads the kept
    replications in index order.
    """
    true_value, estimates, ses, covered = _draw(config)
    if estimates.size == 0:
        raise DegenerateSampleError(
            f"all {config.replications} replications were degenerate (no true positives)"
        )
    mean_se = float(ses.mean())
    # the ses are spent, so their buffer holds the deviations
    sd = math.sqrt(_moment(estimates, 2, ses, ddof=1)) if estimates.size >= 2 else 0.0
    return SimulationReport(
        true_value=true_value,
        mean_estimate=float(estimates.mean()),
        sd_estimates=sd,
        mean_se=mean_se,
        coverage=covered / estimates.size,
        degenerate_count=config.replications - estimates.size,
        estimates=estimates,
    )


def replication_estimates(config: SimulationConfig) -> np.ndarray:
    """Point estimates of the non-degenerate replications, in replication
    order; the same draws run_simulation aggregates."""
    return _draw(config)[1]


# ---------------------------------------------------------------------------
# bootstrap oracle
# ---------------------------------------------------------------------------


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
    error. Resamples are drawn in chunks and the std is taken in place, so
    memory is the kept indices, 8 bytes per resample, plus one chunk.
    """
    _require_type(counts, ConfusionCounts, "counts")
    _require_type(params, TverskyParams, "params")
    resamples = _require_count(resamples, "resamples", 100, 63)
    seed = _require_count(seed, "seed", bits=64)
    if counts.tp == 0:
        raise DegenerateSampleError("sample has no true positives; nothing to resample")
    n = _require_count(counts.n, "total count", bits=63)
    pvals = np.array([counts.tp, counts.fn, counts.fp, counts.tn]) / n
    indices = _empty(resamples, f"resamples={resamples} needs {8 * resamples} bytes of memory")
    rng = np.random.default_rng(seed)
    size = 0
    # Successive chunks consume the stream exactly as one draw of all rows.
    for start in range(0, resamples, _CHUNK):
        draws = rng.multinomial(n, pvals, size=min(_CHUNK, resamples - start))
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
    kept = indices[:size]
    return math.sqrt(_moment(kept, 2, kept, ddof=1))


# ---------------------------------------------------------------------------
# distribution diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramSummary:
    """Equal-width bin counts plus moment diagnostics of a sample of
    estimates. Skewness and excess kurtosis are None where they are
    undefined: a constant sample, or a spread whose moments underflow or
    overflow."""

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
    bins = _require_count(bins, "bins", 1)
    try:
        values = np.asarray(estimates, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError("estimates must be numbers") from None
    if values.ndim != 1:
        values = values.ravel()
    if values.size < 2:
        raise InvalidParameterError("need at least 2 estimates to summarize")
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError("estimates must all be finite")
    lo, hi = float(values.min()), float(values.max())
    if hi - lo == math.inf:
        raise InvalidParameterError(f"estimates in [{lo!r}, {hi!r}] spread past the float range")
    try:
        if 16 * bins > sys.maxsize:  # numpy rejects such a size without trying to allocate it
            raise MemoryError
        # np.histogram widens a constant sample by 0.5 each way and needs bins
        # finite-width bins between the edges, or it raises a bare ValueError.
        edges = np.linspace(*((lo, hi) if lo < hi else (lo - 0.5, hi + 0.5)), bins + 1)
        if np.any(edges[:-1] >= edges[1:]):
            raise InvalidParameterError(
                f"estimates in [{lo!r}, {hi!r}] are too close together for {bins} "
                "finite-width bins"
            )
        counts, edges = np.histogram(values, bins=bins)
    except MemoryError:
        raise InvalidParameterError(
            f"bins={_quote(bins)} needs at least {_quote(16 * bins)} bytes of memory "
            "for the bin counts and edges, more than can be allocated"
        ) from None
    skewness = excess_kurtosis = None
    buf = np.empty_like(values)
    # A constant sample has no spread, and one whose moments underflow or
    # overflow cannot be normalised; don't let rounding residue masquerade as
    # moments.
    try:
        with np.errstate(over="raise"):
            m2 = _moment(values, 2, buf)
            if lo < hi and m2**2 > 0.0:
                skewness = _moment(values, 3, buf) / m2**1.5
                excess_kurtosis = _moment(values, 4, buf) / m2**2 - 3.0
    except (FloatingPointError, OverflowError):
        skewness = excess_kurtosis = None
    return HistogramSummary(
        counts=tuple(int(c) for c in counts),
        edges=tuple(float(e) for e in edges),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        n=int(values.size),
    )
