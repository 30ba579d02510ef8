"""Benchmark of the tverskyci command line.

    python3 perfbench/run.py --workload quick-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. It drives the real CLI from ``src/`` as
a child process, one invocation at a time, checks every output against
the independent oracle, and prints a report followed, as the last line,
by one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` each op runs once plain and once under
the traced driver, and the metrics are the per-layer ones. Every run is
also appended to a results file that ``compare.py`` reads. See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import marshal
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import oracle
from children import ChildResult, run_child
from inputs import CACHE_DIR, Invocation
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_OUT = Path(".perfbench_results") / "runs.jsonl"
SETUP_REPS = 11
IMPORT_REPS = 5
# What the installed `tverskyci` console script runs.
CONSOLE = "import sys; from tverskyci.cli import main; sys.exit(main())"
# The reference a workload's op cost is measured against: the time to
# start a bare interpreter, which no change to the package can move.
REFERENCE = ("-c", "pass")
# setup_s is the `--help` time as a multiple of the adjacent reference
# times, stated in seconds of a host on which a bare interpreter starts in
# this long.
NOMINAL_REFERENCE_S = 0.05
PROBE = (
    "import json, sys, numpy, tverskyci; print(json.dumps({'file': tverskyci.__file__, "
    "'numpy': numpy.__version__, 'python': sys.version.split()[0]}))"
)


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    """Starts CLI children from the checkout's ``src`` and tracks the
    largest peak RSS of any child."""

    def __init__(self) -> None:
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.scratch = CACHE_DIR / "tmp"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.peak_rss_mb = 0.0

    def python(self, *argv: str) -> ChildResult:
        result = run_child([sys.executable, *argv], self.env, str(ROOT), str(self.scratch))
        self.peak_rss_mb = max(self.peak_rss_mb, result.peak_rss_mb)
        return result

    def cli(self, args: tuple[str, ...], spans: Path | None = None) -> ChildResult:
        if spans is None:
            return self.python("-c", CONSOLE, *args)
        return self.python(str(HERE / "tracer.py"), str(spans), *args)


@dataclasses.dataclass
class Op:
    calls: list[tuple[Invocation, ChildResult]]
    problems: list[str]
    traced: bool
    # Mean of the reference times measured just before and just after the
    # op; None in a traced run.
    reference_s: float | None = None

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for _, r in self.calls)

    @property
    def cpu_s(self) -> float:
        return sum(r.cpu_s for _, r in self.calls)


def judge(call: Invocation, result: ChildResult, outputs: dict) -> list[str]:
    """Problems with one invocation: exit status, oracle, and byte
    identity with earlier runs of the same arguments."""
    if result.timed_out:
        return ["timed out"]
    if result.returncode != 0:
        return [f"exit code {result.returncode}: {result.stderr.strip()[-300:]}"]
    problems = oracle.check(call.expect, result.stdout)
    if outputs.setdefault(call.argv, result.stdout) != result.stdout:
        problems.append("stdout differs from an earlier run with the same arguments")
    return [f"{call.argv[0]}: {p}" for p in problems]


def run_op(runner: Runner, op: tuple[Invocation, ...], traced: bool, outputs: dict,
           traces: list[dict]) -> Op:
    spans = runner.scratch / "spans.marshal"
    record = Op(calls=[], problems=[], traced=traced)
    for call in op:
        if traced:
            spans.unlink(missing_ok=True)
        result = runner.cli(call.argv, spans if traced else None)
        record.calls.append((call, result))
        record.problems += judge(call, result, outputs)
        if traced and result.returncode == 0:
            traces.append(marshal.loads(spans.read_bytes()))
    return record


def reference(runner: Runner, reps: int) -> float:
    """Median wall time of ``reps`` fresh REFERENCE processes."""
    return statistics.median(runner.python(*REFERENCE).wall_s for _ in range(reps))


def measure(runner: Runner, workload: Workload, seconds: float,
            traced: bool) -> tuple[list[Op], list[dict]]:
    """Closed loop over the workload's ops for about ``seconds``.

    No op starts once the time is spent or would be spent before a
    typical op ends, but at least ``min_ops`` ops run (a full cycle in a
    traced run) unless twice the time is spent. A traced run runs each op
    plain and then traced. An untraced run measures the reference before
    the first op and after every op.
    """
    per_step = 2 if traced else 1
    min_steps = per_step * (len(workload.ops) if traced else workload.min_ops)
    ops: list[Op] = []
    outputs: dict = {}
    traces: list[dict] = []
    references = [] if traced else [reference(runner, workload.reference_reps)]
    start = time.perf_counter()
    step = 0
    while True:
        op = workload.ops[(step // per_step) % len(workload.ops)]
        ops.append(run_op(runner, op, traced and step % 2 == 1, outputs, traces))
        if not traced:
            references.append(reference(runner, workload.reference_reps))
            ops[-1].reference_s = (references[-2] + references[-1]) / 2
        step += 1
        elapsed = time.perf_counter() - start
        if step % per_step:
            continue
        if elapsed > 2 * seconds or (
            step >= min_steps and elapsed + elapsed / step * per_step > seconds
        ):
            break
    return ops, traces


def oracle_self_check(ops: list[Op]) -> dict:
    """Feed ``judge`` one deliberately wrong output and confirm it is
    counted as a failure."""
    for op in ops:
        if not op.problems:
            call, result = op.calls[0]
            wrong = dataclasses.replace(result, stdout=oracle.corrupt(result.stdout))
            caught = bool(judge(call, wrong, {}))
            return {"injected": 1, "counted_failed": int(caught)}
    return {"injected": 0, "counted_failed": 0}


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples beyond) for the highest percentile that
    still has at least ten samples beyond it; None below 11 samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def setup_time(runner: Runner) -> tuple[float, float]:
    """(setup_s, raw median wall) of SETUP_REPS fresh `tverskyci --help`
    processes.

    Each one is divided by the mean of the reference processes started
    just before and just after it, and the median ratio is scaled by
    NOMINAL_REFERENCE_S, so the host's drift cancels as in
    ``op_wall_median_rel``.
    """
    walls, ratios = [], []
    before = runner.python(*REFERENCE).wall_s
    for _ in range(SETUP_REPS):
        result = runner.cli(("--help",))
        if result.returncode != 0 or "usage: tverskyci" not in result.stdout:
            raise SetupError(f"`tverskyci --help` failed: {result.stderr.strip()[-300:]}")
        after = runner.python(*REFERENCE).wall_s
        walls.append(result.wall_s)
        ratios.append(result.wall_s / ((before + after) / 2))
        before = after
    return NOMINAL_REFERENCE_S * statistics.median(ratios), statistics.median(walls)


def end_to_end(workload: Workload, ops: list[Op], setup: tuple[float, float],
               runner: Runner) -> dict:
    walls = [op.wall_s for op in ops]
    metrics = {
        "setup_s": (setup[0], "s"),
        "setup_wall_s": (setup[1], "s"),
        "op_wall_median_s": (statistics.median(walls), "s"),
        "op_wall_median_rel": (statistics.median(op.wall_s / op.reference_s for op in ops),
                               "ratio"),
        "reference_s": (statistics.median(op.reference_s for op in ops), "s"),
        "invocations_per_s": (sum(len(op.calls) for op in ops) / sum(walls), "1/s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        "op_cpu_median_s": (statistics.median(op.cpu_s for op in ops), "s"),
        "failed_frac": (sum(bool(op.problems) for op in ops) / len(ops), "fraction"),
    }
    found = tail(walls)
    if found is not None:
        value, pct, beyond = found
        metrics["op_wall_tail_s"] = (value, "s", f"p{pct:.1f}, {beyond} of {len(walls)} beyond")
    for name, command, work in workload.rates:
        command_walls = [r.wall_s for op in ops for c, r in op.calls if c.argv[0] == command]
        metrics[name] = (work / statistics.median(command_walls), "1/s")
    return metrics


def per_layer(workload: Workload, runner: Runner, ops: list[Op], traces: list[dict]):
    interpreter, numpy_s, package_s = [], [], []
    for _ in range(IMPORT_REPS):
        interpreter.append(runner.python(*REFERENCE).wall_s)
        probe = runner.python("-X", "importtime", "-c", "import tverskyci.cli")
        if probe.returncode != 0:
            raise SetupError(f"importing tverskyci failed: {probe.stderr.strip()[-300:]}")
        n, p = layers.import_times(probe.stderr)
        numpy_s.append(n)
        package_s.append(p)
    metrics, missing = layers.layer_metrics(traces, workload.expected_spans)
    metrics["import.interpreter_s"] = (statistics.median(interpreter), "s")
    metrics["import.numpy_s"] = (statistics.median(numpy_s), "s")
    metrics["import.tverskyci_s"] = (statistics.median(package_s), "s")
    plain = statistics.median(op.wall_s for op in ops if not op.traced)
    traced = statistics.median(op.wall_s for op in ops if op.traced)
    metrics["trace.overhead_frac"] = ((traced - plain) / plain, "fraction")
    return metrics, missing


def manifest(probe: dict, workload: Workload, args: argparse.Namespace) -> dict:
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "python": probe["python"],
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs,
    }


def preflight(runner: Runner) -> dict:
    if not (ROOT / "src" / "tverskyci" / "__init__.py").is_file():
        raise SetupError(f"no tverskyci package under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SetupError("no BENCHMARK.json at the checkout root")
    probe = runner.python("-c", PROBE)
    if probe.returncode != 0:
        raise SetupError(f"cannot import tverskyci: {probe.stderr.strip()[-300:]}")
    found = json.loads(probe.stdout)
    if not Path(found["file"]).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"tverskyci resolves to {found['file']}, not this checkout")
    return found


def report(workload: Workload, info: dict, metrics: dict, missing: list[str], ops: list[Op],
           self_check: dict) -> None:
    print(f"perfbench {workload.name}  seed={info['seed']}  seconds={info['seconds']}  "
          f"trace={info['trace']}")
    print(f"  python {info['python']}  numpy {info['numpy']}  nproc {info['nproc']}  "
          f"cpu {info['cpu_model']}  commit {info['git_commit']}")
    print(f"  inputs {json.dumps(workload.inputs)}")
    for name, (value, unit, *note) in sorted(metrics.items()):
        print(f"  {name:<38} {value:>16.6g} {unit:<8} {note[0] if note else ''}")
    for name in missing:
        print(f"  {name:<38} {'missing':>16}          expected span never fired")
    failed = sum(bool(op.problems) for op in ops)
    print(f"  ops {len(ops)}  failed {failed}")
    for problem in [p for op in ops for p in op.problems][:5]:
        print(f"    {problem}")
    print(f"  oracle self-check: {self_check['counted_failed']} of {self_check['injected']} "
          "injected wrong outputs counted as failures")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"results file to append this run to (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        runner = Runner()
        probe = preflight(runner)
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        workload = WORKLOADS[args.workload](args.seed)
        setup = setup_time(runner)
        ops, traces = measure(runner, workload, args.seconds, traced=bool(args.trace))
        if args.trace:
            metrics, missing = per_layer(workload, runner, ops, traces)
            wanted = contract["per_layer"]
        else:
            metrics, missing = end_to_end(workload, ops, setup, runner), []
            wanted = contract["end_to_end"]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    self_check = oracle_self_check(ops)
    failed = sum(bool(op.problems) for op in ops)
    correct = failed == 0 and self_check["counted_failed"] == self_check["injected"] == 1
    info = manifest(probe, workload, args)
    report(workload, info, metrics, missing, ops, self_check)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            **info,
            "correct": correct,
            "attempted": len(ops),
            "failed": failed,
            "self_check": self_check,
            "missing": missing,
            "op_walls_s": [op.wall_s for op in ops],
            "op_references_s": [op.reference_s for op in ops],
            "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
        }) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
            for m in wanted if m["name"] in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
