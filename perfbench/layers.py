"""Per-layer metrics from the traced invocations of one run.

Each traced invocation leaves a list of spans (name, start, end, parent
index). A span's self time is its duration minus the durations of its
direct children; spans nest strictly, so the children never overlap.

A metric whose span the workload expects but which never fired is
reported as missing, never as zero.
"""

from __future__ import annotations

import re
from statistics import median

# metric -> (unit, span it is read from)
LAYER_METRICS = {
    "cli.build_parser_s": ("s", "cli.build_parser"),
    "cli.main_self_s": ("s", "cli.main"),
    "ingest.call_s": ("s", "ingest.ingest"),
    "ingest.rows_per_s": ("1/s", "ingest.ingest"),
    "ingest.peak_mb": ("MB", "ingest.ingest"),
    "ingest.rows": ("count", "ingest.ingest"),
    "estimation.confidence_interval_us": ("us", "estimation.confidence_interval"),
    "estimation.confidence_interval_calls": ("count", "estimation.confidence_interval"),
    "estimation.normal_quantile_us": ("us", "estimation.normal_quantile"),
    "planning.required_total_us": ("us", "planning.required_total"),
    "planning.bound_table_us": ("us", "planning.bound_table"),
    "simulation.run_simulation_s": ("s", "simulation.run_simulation"),
    "simulation.replication_estimates_s": ("s", "simulation.replication_estimates"),
    "simulation.self_s": ("s", "simulation.run_simulation"),
    "simulation.replications_drawn": ("count", "simulation.run_simulation"),
    "simulation.histogram_summary_s": ("s", "simulation.histogram_summary"),
    "simulation.bootstrap_se_s": ("s", "simulation.bootstrap_se"),
    "simulation.bootstrap_peak_mb": ("MB", "simulation.bootstrap_se"),
}

_SIMULATION_DRAWS = ("simulation.run_simulation", "simulation.replication_estimates")


def _durations(spans: list) -> list[float]:
    return [end - start for _, start, end, _ in spans]


def _self_times(spans: list) -> list[float]:
    self_time = _durations(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    return self_time


def layer_metrics(traces: list[dict], expected: tuple[str, ...]) -> tuple[dict, list[str]]:
    """(metrics, missing) over the traced invocations of a run.

    ``metrics`` maps a name to (value, unit); ``missing`` lists metrics of
    expected spans that never fired.
    """
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    ci_calls, sim_self, sim_drawn, rows = [], [], [], []
    for trace in traces:
        spans = trace["spans"]
        durations, selfs = _durations(spans), _self_times(spans)
        names = [s[0] for s in spans]
        for i, (name, *_rest, parent) in enumerate(spans):
            # normal_quantile reflects p > 0.5 through itself: count the outer call.
            if name == "estimation.normal_quantile" and parent >= 0 and names[parent] == name:
                continue
            by_name.setdefault(name, []).append(durations[i])
            self_by_name.setdefault(name, []).append(selfs[i])
        ci_calls.append(names.count("estimation.confidence_interval"))
        if any(n in _SIMULATION_DRAWS for n in names):
            sim_self.append(sum(s for n, s in zip(names, selfs) if n in _SIMULATION_DRAWS))
            sim_drawn.append(trace["replications_drawn"])
        if "ingest.ingest" in names:
            rows.append(trace["rows"] / names.count("ingest.ingest"))

    def rss(span: str) -> list[float]:
        return [v for t in traces for v in t["rss_growth_mb"].get(span, [])]

    values = {
        "cli.build_parser_s": by_name.get("cli.build_parser"),
        "cli.main_self_s": self_by_name.get("cli.main"),
        "ingest.call_s": by_name.get("ingest.ingest"),
        "ingest.rows": rows,
        "ingest.peak_mb": rss("ingest.ingest"),
        "estimation.confidence_interval_us": _us(by_name.get("estimation.confidence_interval")),
        "estimation.normal_quantile_us": _us(by_name.get("estimation.normal_quantile")),
        "planning.required_total_us": _us(by_name.get("planning.required_total")),
        "planning.bound_table_us": _us(by_name.get("planning.bound_table")),
        "simulation.run_simulation_s": by_name.get("simulation.run_simulation"),
        "simulation.replication_estimates_s": by_name.get("simulation.replication_estimates"),
        "simulation.self_s": sim_self,
        "simulation.replications_drawn": sim_drawn,
        "simulation.histogram_summary_s": by_name.get("simulation.histogram_summary"),
        "simulation.bootstrap_se_s": by_name.get("simulation.bootstrap_se"),
        "simulation.bootstrap_peak_mb": rss("simulation.bootstrap_se"),
    }
    metrics: dict[str, tuple[float, str]] = {}
    for name, samples in values.items():
        if samples:
            metrics[name] = (median(samples), LAYER_METRICS[name][0])
    if "ingest.call_s" in metrics:
        metrics["ingest.rows_per_s"] = (
            metrics["ingest.rows"][0] / metrics["ingest.call_s"][0], "1/s")
    if any(ci_calls):
        # Calls per invocation, in the invocation that makes the most:
        # one per `ci`, one per replication drawn in `simulate`.
        metrics["estimation.confidence_interval_calls"] = (float(max(ci_calls)), "count")
    missing = sorted(
        name for name, (_, span) in LAYER_METRICS.items()
        if span in expected and name not in metrics
    )
    return metrics, missing


def _us(samples: list[float] | None) -> list[float] | None:
    return None if samples is None else [s * 1e6 for s in samples]


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")


def import_times(stderr: str) -> tuple[float, float]:
    """(numpy_s, tverskyci_s) from ``python -X importtime -c "import
    tverskyci.cli"``: numpy's cumulative import time (0 when the package
    no longer imports it) and the package's own share, excluding numpy.

    The package's share is the cumulative time of the top-level
    ``tverskyci.cli`` line, which covers ``cli`` itself, the modules it
    pulls in (``tverskyci`` and the stdlib ones such as argparse), less
    numpy's cumulative time when numpy is nested under it. A top-level line
    has one space after its second ``|``; each level of nesting adds two.
    """
    numpy_s = 0.0
    package_s = 0.0
    numpy_nested = False
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, module = int(m[2]) / 1e6, len(m[3]) // 2, m[4]
        if module == "numpy" and numpy_s == 0.0:
            numpy_s = cumulative
            numpy_nested = depth > 0
        elif depth == 0 and (module == "tverskyci" or module.startswith("tverskyci.")):
            package_s += cumulative
    return numpy_s, package_s - (numpy_s if numpy_nested else 0.0)
