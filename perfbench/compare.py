"""Summarise or compare benchmark results.

    python3 perfbench/compare.py RESULTS.jsonl             # one set of runs
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl      # two sets, side by side

Each file holds the runs ``run.py`` appended to it, all of one commit
and one ``--seconds``; a file that mixes them is refused. Runs whose
``correct`` is false are left out and counted. The rest are grouped by
workload and trace mode. For every metric this prints the median and
quartiles over the runs and the spread, (q3 - q1) / median.

With one file, each end-to-end metric is marked
``steady`` when its spread is below a third of its bound in
BENCHMARK.json, ``loose`` when it is below the bound, and ``noisy``
otherwise; the exit code is 1 if any is noisy.

With two files, each end-to-end metric gets a verdict against its bound:

* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``unresolved``: the base spread is wider than the bound, and not every
  new run beats every base run;
* ``better``: the new median is better by more than the base spread;
* ``same``: otherwise.

Per-layer metrics have no bound and are printed without a verdict. The
exit code is 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

CONTRACT = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class MixedRuns(Exception):
    """A results file holds runs of more than one commit or run length."""


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """{(workload, trace): {metric: [value per run]}} over the correct runs."""
    groups: dict = {}
    seen: dict[str, set] = {"git_commit": set(), "seconds": set()}
    skipped = 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        for key, values in seen.items():
            values.add(run[key])
            if len(values) > 1:
                raise MixedRuns(f"{path} mixes runs of different {key}: {sorted(map(str, values))}")
        if not run["correct"]:
            skipped += 1
            continue
        metrics = groups.setdefault((run["workload"], run["trace"]), {})
        for name, m in run["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    if skipped:
        print(f"{path}: left out {skipped} run(s) whose output check failed")
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.6g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b, n = quartiles(base)[1], quartiles(new)[1]
    change = sign * (n - b) / abs(b)  # > 0 is worse
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if change > bound:
        return "worse"
    if spread(base) > bound and not all_better:
        return "unresolved"
    if -change > spread(base):
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    contract = json.loads(CONTRACT.read_text())
    e2e = {m["name"]: m for m in contract["end_to_end"]}
    try:
        sides = [load(p) for p in argv]
    except MixedRuns as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    status = 0
    for key in sorted(set().union(*sides)):
        workload, trace = key
        print(f"{workload}  trace={trace}")
        names = sorted(set().union(*(s.get(key, {}) for s in sides)))
        for name in names:
            series = [s.get(key, {}).get(name) for s in sides]
            cols = "   ".join(_fmt(v) if v else f"{'-':>12}" for v in series)
            note = ""
            spec = e2e.get(name) if trace == 0 else None
            if spec and len(sides) == 1 and len(series[0]) > 1:
                s, bound = spread(series[0]), spec["bound"]
                note = f"spread {s:.3f} {'steady' if s < bound / 3 else 'loose' if s < bound else 'noisy'}"
                status |= s >= bound
            elif spec and len(sides) == 2 and all(series):
                v = verdict(series[0], series[1], spec["bound"], spec["better"])
                note = f"{v} (bound {spec['bound']})"
                status |= v == "worse"
            print(f"  {name:<38} {cols}   {note}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
