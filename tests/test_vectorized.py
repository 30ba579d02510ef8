"""The vectorized simulation against the per-replication loop it replaced.

The oracle below is that loop: a fresh Philox generator keyed on
(seed, i) for each replication, then a scalar confidence_interval call.
The vectorized draw must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverskyci import (
    ConfusionCounts,
    InvalidParameterError,
    ScoreModel,
    SimulationConfig,
    SummaryStats,
    TverskyParams,
    asymptotic_variance,
    bootstrap_se,
    confidence_interval,
    population_index,
    population_variance,
)
from tverskyci.estimation import _summary_variance, _variance_kernel
from tverskyci.simulation import _draw, _intervals
from tests._reference import REFERENCE_CONFIG, REFERENCE_MODEL, REFERENCE_PARAMS

F05 = TverskyParams(0.8, 0.2)


def oracle_draw(config):
    pvals = np.array(config.model.cell_probabilities)
    true_value = population_index(config.model, config.params)
    reps = config.replications
    estimates = np.full(reps, np.nan)
    ses = np.full(reps, np.nan)
    covered = np.zeros(reps, dtype=bool)
    degenerate = np.zeros(reps, dtype=bool)
    for i in range(reps):
        key = np.array([config.seed, i], dtype=np.uint64)
        cells = np.random.Generator(np.random.Philox(key=key)).multinomial(config.n, pvals)
        if cells[0] == 0:
            degenerate[i] = True
            continue
        counts = ConfusionCounts(*(int(c) for c in cells))
        report = confidence_interval(counts, config.params, config.level)
        estimates[i] = report.estimate
        ses[i] = report.se
        covered[i] = report.ci_lower <= true_value <= report.ci_upper
    return estimates, ses, covered, degenerate


def _config(n, replications, params=F05, model=REFERENCE_MODEL, level=0.95, seed=0):
    return SimulationConfig(
        model=model, n=n, replications=replications, params=params, level=level, seed=seed
    )


@pytest.mark.parametrize(
    "config",
    [
        REFERENCE_CONFIG,
        # about half the replications have no true positives
        _config(5, 300, model=ScoreModel(0.1, 2.0, 1.0), seed=3),
        _config(1, 400, seed=7),
        # every replication is degenerate
        _config(1, 5, model=ScoreModel(0.01, 2.0, 1.0), seed=5),
        _config(30, 200, params=TverskyParams(1e-3, 1e3), level=0.5),
        _config(30, 200, params=TverskyParams(1e3, 1e-3), seed=2**64 - 1),
        # perfect separation: every interval has zero width
        _config(200, 100, model=ScoreModel(0.5, 40.0, -40.0)),
        # totals past 2**53, where int64 division would round twice
        _config(3 * 2**58 + 12345, 50, params=TverskyParams(0.3, 3.0), seed=11),
    ],
    ids=["reference", "degenerate", "n1", "all-degenerate", "tiny-fp", "tiny-fn",
         "perfect", "huge-n"],
)
def test_draw_matches_per_replication_oracle_bitwise(config):
    got = _draw(config)
    want = oracle_draw(config)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


_cells = st.integers(0, 2**60)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 2**60),
    _cells,
    _cells,
    _cells,
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(0.01, 0.999),
    st.floats(0.0, 1.0),
)
@example(1, 5, 5, 90, 0.8, 0.2, 0.95, 0.5)  # tp = 1
@example(7, 0, 0, 0, 0.8, 0.2, 0.95, 1.0)  # tp = n
@example(50, 0, 0, 50, 1e-3, 1e3, 0.5, 1.0)  # error-free sample
def test_vectorized_interval_matches_scalar_bitwise(tp, fn, fp, tn, a, b, level, value):
    params = TverskyParams(a, b)
    cells = np.array([[tp, fn, fp, tn]], dtype=np.int64)
    try:
        report = confidence_interval(ConfusionCounts(tp, fn, fp, tn), params, level)
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as vectorized:
            _intervals(cells, params, level)
        assert str(vectorized.value) == str(exc)
        return
    estimate, se, lower, upper = (float(x[0]) for x in _intervals(cells, params, level))
    assert estimate.hex() == report.estimate.hex()
    assert se.hex() == report.se.hex()
    assert lower.hex() == report.ci_lower.hex()
    assert upper.hex() == report.ci_upper.hex()
    assert (lower <= value <= upper) == (report.ci_lower <= value <= report.ci_upper)


def test_variance_kernel_rounds_like_python_floats():
    # The oracle above shares the kernel with confidence_interval, so pin the
    # kernel itself to plain float arithmetic: t ** 4 is libm pow, which
    # ** and np.power on float64 arrays miss by an ulp for a few percent of t.
    rng = np.random.default_rng(0)
    t, t2, rate = rng.uniform(1e-3, 1.0, size=(3, 100_000))
    r1, r2 = 1.0 / t - 1.0, 1.0 / t2 - 1.0
    rows = list(zip(r1.tolist(), r2.tolist(), t.tolist(), rate.tolist()))
    want = np.array([(b + a * a) * x**4 / p for a, b, x, p in rows])
    assert _variance_kernel(r1, r2, t, rate).tobytes() == want.tobytes()
    assert [float(_variance_kernel(*row)) for row in rows[:1000]] == want[:1000].tolist()


def test_intervals_reject_negative_counts():
    with pytest.raises(InvalidParameterError, match="must be >= 0"):
        _intervals(np.array([[5, -1, 2, 3]], dtype=np.int64), F05, 0.95)


def test_scalar_variance_callers_get_python_floats():
    counts = ConfusionCounts(300, 60, 40, 600)
    assert type(asymptotic_variance(counts, F05)) is float
    assert type(population_variance(REFERENCE_MODEL, REFERENCE_PARAMS)) is float


@pytest.mark.parametrize(
    "stats,params",
    [
        # ratio below the smaller weight
        (SummaryStats(100, 0.3, 0.5, 0.9090909), F05),
        # 1/t - 1 above max_weight * (1/tp_rate - 1)
        (SummaryStats(100, 0.99, 0.5, 0.6), TverskyParams(0.5, 1.0)),
        # t = 1 with t2 < 1
        (SummaryStats(100, 0.5, 1.0, 0.9), F05),
    ],
)
def test_array_checks_report_the_first_inconsistent_element(stats, params):
    with pytest.raises(InvalidParameterError) as scalar:
        asymptotic_variance(stats, params)
    good = SummaryStats(100, 0.3, 0.5, 0.6)
    column = [good, stats, good, stats]

    def arrays(name):
        return np.array([getattr(s, name) for s in column])

    with pytest.raises(InvalidParameterError) as vectorized:
        _summary_variance(arrays("tversky"), arrays("tversky_sq"), arrays("tp_rate"), params)
    assert str(vectorized.value) == str(scalar.value)


def _bootstrap_oracle(counts, params, resamples, seed):
    # One draw of every resample at once, as before draws were chunked.
    n = counts.n
    pvals = np.array([counts.tp, counts.fn, counts.fp, counts.tn]) / n
    draws = np.random.default_rng(seed).multinomial(n, pvals, size=resamples)
    tp = draws[:, 0].astype(float)
    kept = tp > 0
    errors = params.fp_weight * draws[kept, 2] + params.fn_weight * draws[kept, 1]
    return float((tp[kept] / (tp[kept] + errors)).std(ddof=1))


@pytest.mark.parametrize(
    "counts,resamples,seed",
    [
        (ConfusionCounts(300, 60, 40, 600), 200_001, 0),
        # about 1 in 64 of these resamples has no true positives
        (ConfusionCounts(3, 1, 1, 1), 150_000, 9),
        (ConfusionCounts(30, 20, 10, 40), 100, 2),
    ],
)
def test_chunked_bootstrap_matches_single_draw(counts, resamples, seed):
    got = bootstrap_se(counts, F05, resamples=resamples, seed=seed)
    assert got.hex() == _bootstrap_oracle(counts, F05, resamples, seed).hex()


def test_vectorized_tiny_index_matches_scalar_bitwise():
    # Rows 0 and 2 have an index near 1e-100, whose t^4 underflows; row 1 is
    # ordinary. Each row must take its own branch of the kernel.
    params = TverskyParams(1e100, 1.0)
    rows = [(1, 0, 1, 0), (5, 3, 0, 9), (3, 7, 2, 1)]
    _, se, _, _ = _intervals(np.array(rows, dtype=np.int64), params, 0.95)
    want = [confidence_interval(ConfusionCounts(*row), params).se for row in rows]
    assert [x.hex() for x in se.tolist()] == [x.hex() for x in want]
    assert se[0] > 0.0 and se[2] > 0.0
