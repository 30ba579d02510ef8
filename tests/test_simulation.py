import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from tverskyci import (
    ConfusionCounts,
    DegenerateSampleError,
    InvalidParameterError,
    ScoreModel,
    SimulationConfig,
    SummaryStats,
    TverskyParams,
    asymptotic_variance,
    bootstrap_se,
    confidence_interval,
    fbeta_to_tversky,
    histogram_summary,
    population_index,
    population_variance,
    replication_estimates,
    run_simulation,
)
from tverskyci import simulation
from tests._reference import REFERENCE_CONFIG, REFERENCE_MODEL, REFERENCE_PARAMS, exact_moments

F05 = TverskyParams(0.8, 0.2)


# ---------------------------------------------------------------------------
# population quantities
# ---------------------------------------------------------------------------


def test_cell_probabilities_form_a_distribution():
    p_tp, p_fn, p_fp, p_tn = REFERENCE_MODEL.cell_probabilities
    assert p_tp + p_fn == REFERENCE_MODEL.prevalence
    assert min(p_tp, p_fn, p_fp, p_tn) >= 0.0
    assert p_tp + p_fn + p_fp + p_tn == pytest.approx(1.0, abs=1e-15)
    # shift - threshold overflows to inf: every score lies above the threshold
    model = ScoreModel(0.5, 1e308, -1e308)
    assert model.cell_probabilities == (0.5, 0.0, 0.5, 0.0)
    assert population_index(model, TverskyParams(0.5, 0.5)) == 2 / 3


def test_population_index_reference_model():
    # scipy-based oracle for the closed form
    hit = float(norm.cdf(2.5 - 1.0))
    false_alarm = float(norm.cdf(-1.0))
    p_tp, p_fn, p_fp = 0.5 * hit, 0.5 * (1 - hit), 0.5 * false_alarm
    expected = p_tp / (p_tp + 0.8 * p_fp + 0.2 * p_fn)
    value = population_index(REFERENCE_MODEL, REFERENCE_PARAMS)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx(0.8693168, abs=5e-7)


def test_population_index_strong_separation():
    # shift so large the hit rate saturates: index -> 1 / (1 + a*fp_mass/prevalence)
    model = ScoreModel(prevalence=0.5, shift=40.0, threshold=1.0)
    expected = 1.0 / (1.0 + 0.8 * float(norm.cdf(-1.0)))
    assert population_index(model, F05) == pytest.approx(expected, rel=1e-12)


def test_population_index_always_positive_rule():
    # threshold at -40: every record is predicted positive, recall is 1
    model = ScoreModel(prevalence=0.3, shift=1.0, threshold=-40.0)
    expected = 0.3 / (0.3 + 0.8 * 0.7)
    assert population_index(model, F05) == pytest.approx(expected, rel=1e-12)


def test_population_variance_matches_summary_path():
    p_tp, _, _, _ = REFERENCE_MODEL.cell_probabilities
    stats = SummaryStats(
        n=1,
        tp_rate=p_tp,
        tversky=population_index(REFERENCE_MODEL, REFERENCE_PARAMS),
        tversky_sq=population_index(REFERENCE_MODEL, REFERENCE_PARAMS.squared()),
    )
    assert population_variance(REFERENCE_MODEL, REFERENCE_PARAMS) == pytest.approx(
        asymptotic_variance(stats, REFERENCE_PARAMS), rel=1e-12
    )


def test_population_index_degenerate_model():
    # hit rate underflows to zero: no true positives in the population
    model = ScoreModel(prevalence=0.5, shift=0.0, threshold=40.0)
    with pytest.raises(DegenerateSampleError):
        population_index(model, F05)


def test_score_model_validation():
    for prevalence in (0.0, 1.0, -0.1):
        with pytest.raises(InvalidParameterError):
            ScoreModel(prevalence=prevalence, shift=1.0, threshold=0.0)
    with pytest.raises(InvalidParameterError):
        ScoreModel(prevalence=0.5, shift=math.inf, threshold=0.0)


# ---------------------------------------------------------------------------
# replicated experiments
# ---------------------------------------------------------------------------


def _small_config(**overrides):
    defaults = dict(
        model=REFERENCE_MODEL,
        n=200,
        replications=100,
        params=REFERENCE_PARAMS,
        level=0.95,
        seed=42,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def test_same_seed_gives_identical_reports():
    config = _small_config()
    assert run_simulation(config) == run_simulation(config)


def test_different_seed_gives_different_reports():
    assert run_simulation(_small_config(seed=1)) != run_simulation(_small_config(seed=2))


def test_single_replication():
    report = run_simulation(_small_config(replications=1))
    assert report.coverage in (0.0, 1.0)
    assert report.sd_estimates == 0.0
    assert report.degenerate_count == 0


def test_two_replications_give_their_sample_spread():
    report = run_simulation(_small_config(replications=2))
    assert report.degenerate_count == 0
    assert report.sd_estimates > 0.0
    assert report.sd_estimates == float(np.std(report.estimates, ddof=1))


def test_a_perfect_model_covers_its_true_value_with_a_zero_width_interval():
    # Every replication of this model has fn = fp = 0, so its interval is
    # [1, 1], which covers the true value 1 at both ends.
    model = ScoreModel(0.5, 50.0, 40.0)
    assert model.cell_probabilities == (0.5, 0.0, 0.0, 0.5)
    config = _small_config(model=model, n=20, replications=30)
    report = run_simulation(config)
    assert (report.true_value, report.coverage, report.mean_se) == (1.0, 1.0, 0.0)


def test_the_largest_level_below_1_gives_intervals():
    # At 1 - 2**-53, (1 + level)/2 rounds to 1; z comes from the lower tail.
    report = run_simulation(_small_config(level=1.0 - 2**-53))
    assert report.coverage == 1.0


def test_estimates_align_with_report():
    config = _small_config()
    report = run_simulation(config)
    estimates = replication_estimates(config)
    assert estimates.size == config.replications - report.degenerate_count
    assert float(estimates.mean()) == report.mean_estimate


def test_degenerate_replications_are_counted_not_fatal():
    # ~9 expected true positives per replication of 20; some replications get none
    model = ScoreModel(prevalence=0.05, shift=0.0, threshold=1.5)
    config = SimulationConfig(
        model=model, n=20, replications=300, params=F05, level=0.95, seed=9
    )
    report = run_simulation(config)
    assert report.degenerate_count > 0
    assert report.degenerate_count + replication_estimates(config).size == 300


def test_all_degenerate_raises():
    model = ScoreModel(prevalence=0.05, shift=0.0, threshold=8.0)
    config = SimulationConfig(model=model, n=5, replications=20, params=F05, seed=3)
    with pytest.raises(DegenerateSampleError):
        run_simulation(config)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        _small_config(n=0)
    with pytest.raises(InvalidParameterError):
        _small_config(replications=0)
    with pytest.raises(InvalidParameterError):
        _small_config(level=1.0)
    with pytest.raises(InvalidParameterError):
        _small_config(seed=-1)
    with pytest.raises(InvalidParameterError):
        _small_config(seed=2**64)


def test_reference_spread_tracks_population_variance(reference_simulation):
    # CLT scaling: sd of the estimates times sqrt(n) approaches the
    # population standard deviation.
    report, _ = reference_simulation
    target = math.sqrt(population_variance(REFERENCE_MODEL, REFERENCE_PARAMS))
    observed = report.sd_estimates * math.sqrt(REFERENCE_CONFIG.n)
    assert abs(observed - target) / target < 0.05


def test_reference_mean_se_tracks_spread(reference_simulation):
    report, _ = reference_simulation
    assert 0.95 <= report.mean_se / report.sd_estimates <= 1.05


def test_reference_coverage_near_nominal(reference_simulation):
    report, _ = reference_simulation
    assert 0.94 <= report.coverage <= 0.96


_EXACT_REPLICATIONS = 40_000


@pytest.mark.parametrize(
    "model, n, params, seed",
    [
        (ScoreModel(0.2, 2.5, 1.25), 20, TverskyParams(0.8, 0.2), 1),
        (ScoreModel(0.1, 1.5, 0.75), 30, fbeta_to_tversky(1.0), 2),
        (ScoreModel(0.1, 1.0, 0.5), 12, TverskyParams(0.3, 0.9), 3),
    ],
)
def test_small_sample_simulation_matches_exact_enumeration(model, n, params, seed):
    # Coverage here is 0.82-0.94, not the nominal 0.95, and 2-42% of the
    # replications have no true positive: the exact values, which share no
    # code with run_simulation, are what the simulation must reproduce. Each
    # value may miss by 4 Monte Carlo standard errors (normal approximation;
    # the sd's from its delta method). A fresh seed fails one of these 12
    # comparisons by chance with probability at most 12 * 6.3e-5, under 1e-3.
    exact = exact_moments(model, n, params, 0.95)
    config = SimulationConfig(model, n, _EXACT_REPLICATIONS, params, 0.95, seed)
    report = run_simulation(config)
    kept = _EXACT_REPLICATIONS - report.degenerate_count
    sd, p0 = exact.sd_estimates, exact.degenerate_rate
    checks = {
        "coverage": (report.coverage, exact.coverage, exact.coverage * (1 - exact.coverage) / kept),
        "degenerate_rate": (
            report.degenerate_count / _EXACT_REPLICATIONS, p0, p0 * (1 - p0) / _EXACT_REPLICATIONS
        ),
        "mean_estimate": (report.mean_estimate, exact.mean_estimate, sd * sd / kept),
        "sd_estimates": (
            report.sd_estimates, sd, (exact.fourth_moment - sd**4) / (4 * sd * sd * kept)
        ),
    }
    for name, (got, want, mc_variance) in checks.items():
        assert abs(got - want) <= 4 * math.sqrt(mc_variance), (name, got, want)


# ---------------------------------------------------------------------------
# bootstrap oracle
# ---------------------------------------------------------------------------


def test_bootstrap_is_deterministic():
    counts = ConfusionCounts(300, 60, 40, 600)
    one = bootstrap_se(counts, F05, resamples=5000, seed=11)
    two = bootstrap_se(counts, F05, resamples=5000, seed=11)
    assert one == two
    assert bootstrap_se(counts, F05, resamples=5000, seed=12) != one


def test_bootstrap_zero_for_perfect_counts():
    assert bootstrap_se(ConfusionCounts(500, 0, 0, 500), F05, resamples=1000, seed=0) == 0.0


@pytest.mark.parametrize(
    "counts,params",
    [
        (ConfusionCounts(300, 60, 40, 600), F05),
        (ConfusionCounts(30, 20, 10, 40), TverskyParams(0.5, 0.5)),
    ],
)
def test_bootstrap_agrees_with_analytic_se(counts, params):
    analytic = confidence_interval(counts, params).se
    boot = bootstrap_se(counts, params, resamples=100_000, seed=0)
    assert abs(boot - analytic) / analytic < 0.10


def test_bootstrap_with_exactly_half_its_resamples_degenerate():
    # Seed 81 draws tp = 0 in exactly 50 of the 100 resamples; more than half
    # is the error. Each kept resample has fn = fp = 0, so every index is 1.
    assert bootstrap_se(ConfusionCounts(1, 0, 0, 999), TverskyParams(0.5, 0.5), resamples=100, seed=81) == 0.0


def test_bootstrap_validation():
    counts = ConfusionCounts(300, 60, 40, 600)
    with pytest.raises(InvalidParameterError):
        bootstrap_se(counts, F05, resamples=99)
    with pytest.raises(DegenerateSampleError):
        bootstrap_se(ConfusionCounts(0, 5, 5, 90), F05)
    with pytest.raises(InvalidParameterError):
        bootstrap_se(counts, F05, seed=-1)


# ---------------------------------------------------------------------------
# histogram diagnostics
# ---------------------------------------------------------------------------


def test_histogram_constant_sample():
    summary = histogram_summary([0.7] * 50, bins=5)
    assert sum(1 for c in summary.counts if c > 0) == 1
    assert sum(summary.counts) == 50
    assert summary.skewness is None
    assert summary.excess_kurtosis is None


def test_histogram_moments_that_underflow_are_none():
    # Distinct estimates whose centred squares underflow to 0: no shape
    # can be normalised out of them, as for a constant sample.
    summary = histogram_summary([1e-200, 2e-200, 3e-200, 5e-200], bins=3)
    assert sum(summary.counts) == 4
    assert summary.skewness is None
    assert summary.excess_kurtosis is None


@pytest.mark.parametrize("estimates", [[0.0, 1e100], [0.0, 1e300], [-1e200, 1e200, 0.5]])
def test_histogram_moments_that_overflow_are_none(estimates):
    summary = histogram_summary(estimates, bins=2)
    assert sum(summary.counts) == len(estimates)
    assert summary.skewness is None
    assert summary.excess_kurtosis is None


@pytest.mark.parametrize(
    "estimates, message",
    [([-1e308, 1e308], "spread past the float range"), ([0.5, 10**400], "must be numbers")],
)
def test_histogram_of_estimates_past_the_float_range_is_parameter_error(estimates, message):
    with pytest.raises(InvalidParameterError, match=message):
        histogram_summary(estimates)


def test_replications_and_resamples_past_the_address_space_are_parameter_errors():
    # numpy refuses such an array with a ValueError, not a MemoryError.
    config = dataclasses.replace(REFERENCE_CONFIG, replications=2**62)
    with pytest.raises(InvalidParameterError, match="more than can be allocated"):
        run_simulation(config)
    with pytest.raises(InvalidParameterError, match="more than can be allocated"):
        bootstrap_se(ConfusionCounts(30, 20, 10, 40), REFERENCE_PARAMS, resamples=2**62)


def test_population_variance_squared_weight_overflow():
    with pytest.raises(InvalidParameterError, match="overflow when squared"):
        population_variance(REFERENCE_MODEL, TverskyParams(1e200, 1.0))


@pytest.mark.parametrize(
    "model",
    [ScoreModel(0.5, -35.0, 2.0), ScoreModel(0.5, -37.0, 1.0), ScoreModel(1e-300, 2.0, 1.0)],
)
def test_population_variance_that_overflows_is_parameter_error(model):
    # p_tp is near 1e-300, so (1/t - 1)^2 overflows and the kernel gives nan.
    with pytest.raises(InvalidParameterError, match="the variance is"):
        population_variance(model, TverskyParams(1.0, 1.0))


def test_histogram_symmetric_two_point_sample():
    summary = histogram_summary([0.4] * 500 + [0.6] * 500, bins=4)
    assert summary.skewness == pytest.approx(0.0, abs=1e-12)
    assert summary.counts[0] == 500
    assert summary.counts[-1] == 500


def test_histogram_of_a_2d_array_is_that_of_its_values():
    estimates = np.array([[0.1, 0.4, 0.2], [0.9, 0.3, 0.35]])
    assert histogram_summary(estimates, bins=4) == histogram_summary(estimates.ravel(), bins=4)


def test_histogram_validation():
    with pytest.raises(InvalidParameterError):
        histogram_summary([0.5], bins=10)
    with pytest.raises(InvalidParameterError):
        histogram_summary([0.4, 0.6], bins=0)
    with pytest.raises(InvalidParameterError):
        histogram_summary([0.4, math.nan], bins=4)


@pytest.mark.parametrize(
    "estimates, bins",
    [([0.5, math.nextafter(0.5, 1)], 30), ([0.5, math.nextafter(0.5, 1)], 2), ([1e20, 1e20], 1)],
)
def test_histogram_of_too_close_estimates_is_parameter_error(estimates, bins):
    # np.histogram cannot make bins finite-width bins over this spread (a
    # constant sample is widened by 0.5 each way, which vanishes at 1e20).
    with pytest.raises(InvalidParameterError, match="too close together for"):
        histogram_summary(estimates, bins=bins)


@pytest.mark.parametrize("bins", [2**62, 2**63 - 1, 2**100])
def test_histogram_with_more_bins_than_memory_is_parameter_error(bins):
    with pytest.raises(InvalidParameterError, match="more than can be allocated"):
        histogram_summary([0.1, 0.2], bins=bins)


def test_histogram_of_estimates_one_ulp_apart_fits_one_bin():
    # One bin over one ulp has a finite width; two would not (above).
    summary = histogram_summary([0.5, math.nextafter(0.5, 1)], bins=1)
    assert summary.counts == (2,)


def test_histogram_counts_cover_all_estimates():
    rng = np.random.default_rng(3)
    values = rng.normal(0.5, 0.1, size=1000)
    summary = histogram_summary(values, bins=17)
    assert sum(summary.counts) == 1000
    assert len(summary.edges) == 18


def test_report_carries_the_kept_estimates():
    config = SimulationConfig(
        model=ScoreModel(0.1, 2.0, 1.0), n=30, replications=200, params=F05, seed=4
    )
    report = run_simulation(config)
    assert np.array_equal(report.estimates, replication_estimates(config))
    assert report.estimates.size + report.degenerate_count == 200
    # the array takes no part in equality or hashing
    other = dataclasses.replace(report, estimates=np.zeros(1))
    assert other == report
    assert hash(other) == hash(report)


def _traced(call):
    """call()'s result and the peak bytes tracemalloc saw during it;
    tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_simulation_memory_per_replication(monkeypatch):
    # The report needs 16 B per replication: each kept estimate and se. The
    # rest is a count of the covered ones and one chunk's cells and interval
    # temporaries, about 180 B a row; a small chunk keeps that budget small
    # beside the per-replication term. numpy's per-draw allocations make the
    # loop about ten times slower traced, so 60k replications take a second.
    monkeypatch.setattr(simulation, "_CHUNK", 2**10)
    run_simulation(dataclasses.replace(REFERENCE_CONFIG, replications=10))  # lazy set-up
    config = dataclasses.replace(REFERENCE_CONFIG, replications=60_000)
    report, peak = _traced(lambda: run_simulation(config))
    assert report.estimates.size == config.replications
    assert peak < 20 * config.replications + 256 * simulation._CHUNK


def test_bootstrap_se_memory_per_resample():
    # The kept indices, 8 B per resample, whose std is taken in place, plus
    # one chunk's draws and temporaries, about 90 B a row.
    counts, resamples = ConfusionCounts(300, 60, 40, 600), 300_000
    bootstrap_se(counts, F05, resamples=100)  # lazy set-up
    _, peak = _traced(lambda: bootstrap_se(counts, F05, resamples=resamples))
    assert peak < 9 * resamples + 2**20


def test_sizes_beyond_int64_are_parameter_errors():
    model, big = REFERENCE_MODEL, 2**63
    SimulationConfig(model=model, n=big - 1, replications=1, params=F05)
    with pytest.raises(InvalidParameterError, match="n must fit"):
        SimulationConfig(model=model, n=big, replications=1, params=F05)
    with pytest.raises(InvalidParameterError, match="replications must fit"):
        SimulationConfig(model=model, n=10, replications=10**20, params=F05)
    with pytest.raises(InvalidParameterError, match="total count must fit"):
        bootstrap_se(ConfusionCounts(10**20, 1, 1, 1), F05)
    with pytest.raises(InvalidParameterError, match="resamples must fit"):
        bootstrap_se(ConfusionCounts(3, 1, 1, 1), F05, resamples=10**20)
