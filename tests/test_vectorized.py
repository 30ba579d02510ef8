"""The vectorized simulation against the per-replication loop it replaced.

The oracle below is that loop: a fresh Philox generator keyed on
(seed, i) for each replication, then a scalar confidence_interval call.
What run_simulation and replication_estimates return must match its
aggregates bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverskyci import (
    ConfusionCounts,
    DegenerateSampleError,
    InvalidParameterError,
    ScoreModel,
    SimulationConfig,
    TverskyParams,
    asymptotic_variance,
    bootstrap_se,
    confidence_interval,
    population_index,
    population_variance,
    replication_estimates,
    run_simulation,
)
from tverskyci.estimation import _variance_kernel
from tverskyci import simulation
from tverskyci.simulation import _intervals
from tests._reference import REFERENCE_CONFIG, REFERENCE_MODEL, REFERENCE_PARAMS

F05 = TverskyParams(0.8, 0.2)


def oracle_draw(config):
    """Estimates, ses and covered flags of the replications with a true
    positive, in replication order, and how many had none."""
    pvals = np.array(config.model.cell_probabilities)
    true_value = population_index(config.model, config.params)
    estimates, ses, covered, degenerate = [], [], [], 0
    for i in range(config.replications):
        key = np.array([config.seed, i], dtype=np.uint64)
        cells = np.random.Generator(np.random.Philox(key=key)).multinomial(config.n, pvals)
        if cells[0] == 0:
            degenerate += 1
            continue
        counts = ConfusionCounts(*(int(c) for c in cells))
        report = confidence_interval(counts, config.params, config.level)
        estimates.append(report.estimate)
        ses.append(report.se)
        covered.append(report.ci_lower <= true_value <= report.ci_upper)
    return np.array(estimates, dtype=float), np.array(ses), np.array(covered), degenerate


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
    estimates, ses, covered, degenerate = oracle_draw(config)
    got = replication_estimates(config)
    assert got.dtype == estimates.dtype
    assert got.tobytes() == estimates.tobytes()
    if estimates.size == 0:
        with pytest.raises(DegenerateSampleError, match="replications were degenerate"):
            run_simulation(config)
        return
    report = run_simulation(config)
    assert report.estimates.tobytes() == estimates.tobytes()
    sd = float(estimates.std(ddof=1)) if estimates.size >= 2 else 0.0
    want = (
        population_index(config.model, config.params),
        float(estimates.mean()),
        sd,
        float(ses.mean()),
        float(covered.mean()),
    )
    fields = (report.true_value, report.mean_estimate, report.sd_estimates, report.mean_se,
              report.coverage)
    assert [x.hex() for x in fields] == [x.hex() for x in want]
    assert report.degenerate_count == degenerate


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
    n = tp + fn + fp + tn
    try:
        report = confidence_interval(ConfusionCounts(tp, fn, fp, tn), params, level)
    except InvalidParameterError as exc:
        with pytest.raises(InvalidParameterError) as vectorized:
            _intervals(cells, n, params, level)
        assert str(vectorized.value) == str(exc)
        return
    estimate, se, lower, upper = (float(x[0]) for x in _intervals(cells, n, params, level))
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


def test_scalar_variance_callers_get_python_floats():
    counts = ConfusionCounts(300, 60, 40, 600)
    assert type(asymptotic_variance(counts, F05)) is float
    assert type(population_variance(REFERENCE_MODEL, REFERENCE_PARAMS)) is float


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


def _chunked_results():
    """Every simulation and bootstrap result whose bits must not depend on
    the chunk sizes, as hex strings and bytes."""
    results = []
    for config in (
        _config(50, 9000, seed=1),  # more than one default chunk
        _config(5, 300, model=ScoreModel(0.1, 2.0, 1.0), seed=3),  # half degenerate
    ):
        report = run_simulation(config)
        fields = (report.true_value, report.mean_estimate, report.sd_estimates,
                  report.mean_se, report.coverage)
        results += [x.hex() for x in fields]
        results += [report.degenerate_count, report.estimates.tobytes(),
                    replication_estimates(config).tobytes()]
    # replication 82 is the first whose index is so near 0 that its variance
    # overflows: its chunk must raise what a pass over all of them would
    overflow = _config(30, 500, params=TverskyParams(1e154, 1.0),
                       model=ScoreModel(0.5, 1.0, 1.0), seed=6)
    with pytest.raises(InvalidParameterError, match="the variance is nan") as raised:
        run_simulation(overflow)
    results.append(str(raised.value))
    for counts in (ConfusionCounts(300, 60, 40, 600), ConfusionCounts(3, 1, 1, 1)):
        results.append(bootstrap_se(counts, F05, resamples=20_001, seed=5).hex())
    return results


@pytest.mark.parametrize("chunk", [1, 7, 2**16])
def test_chunk_sizes_change_no_bit(monkeypatch, chunk):
    want = _chunked_results()
    monkeypatch.setattr(simulation, "_CHUNK", chunk)
    assert _chunked_results() == want


def test_vectorized_tiny_index_matches_scalar_bitwise():
    # Rows 0 and 2 have an index near 1e-100, whose t^4 underflows; row 1 is
    # ordinary. Each row must take its own branch of the kernel; the rows
    # have different totals, so each goes through _intervals alone.
    params = TverskyParams(1e100, 1.0)
    rows = [(1, 0, 1, 0), (5, 3, 0, 9), (3, 7, 2, 1)]
    se = np.concatenate(
        [_intervals(np.array([row], dtype=np.int64), sum(row), params, 0.95)[1] for row in rows]
    )
    want = [confidence_interval(ConfusionCounts(*row), params).se for row in rows]
    assert [x.hex() for x in se.tolist()] == [x.hex() for x in want]
    assert se[0] > 0.0 and se[2] > 0.0
