"""Do the analytic intervals actually cover at their nominal rate?

Synthetic check: draw many validation sets from a known Gaussian score
model, build a 95% interval on each, and count how often the interval
contains the model's true index. Takes a few seconds.

    python demos/03_coverage_simulation.py
"""

import math

from tverskyci import (
    ScoreModel,
    SimulationConfig,
    fbeta_to_tversky,
    histogram_summary,
    population_index,
    population_variance,
    run_simulation,
)

# Balanced labels; scores sit at N(0,1) for negatives and N(2.5,1) for
# positives; predict positive above threshold 1.
model = ScoreModel(prevalence=0.5, shift=2.5, threshold=1.0)
params = fbeta_to_tversky(0.5)

true_value = population_index(model, params)
print(f"true F0.5 under the model = {true_value:.7f}")

config = SimulationConfig(
    model=model, n=1000, replications=10000, params=params, level=0.95, seed=0
)
report = run_simulation(config)

print(f"\n{config.replications} replications of n={config.n}:")
print(f"  mean estimate        = {report.mean_estimate:.7f}")
print(f"  spread of estimates  = {report.sd_estimates:.7f}")
print(f"  mean analytic se     = {report.mean_se:.7f}   "
      f"(ratio {report.mean_se / report.sd_estimates:.4f}, ideal 1)")
print(f"  coverage of 95% CIs  = {report.coverage:.4f}   (ideal 0.95)")
print(f"  degenerate draws     = {report.degenerate_count}")

# The population variance predicts the spread directly: sd ~ sqrt(v/n).
v = population_variance(model, params)
print(f"\npredicted spread sqrt(v/n) = {math.sqrt(v / config.n):.7f}")

# The estimates themselves should look normal at this scale.
summary = histogram_summary(report.estimates, bins=30)
print(f"\nshape diagnostics: skewness {summary.skewness:+.4f}, "
      f"excess kurtosis {summary.excess_kurtosis:+.4f}")
peak = max(summary.counts)
print("histogram of the estimates:")
for count, left, right in zip(summary.counts, summary.edges, summary.edges[1:]):
    bar = "#" * round(40 * count / peak)
    print(f"  [{left:.4f}, {right:.4f}) {bar}")
