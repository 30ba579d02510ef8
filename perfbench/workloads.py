"""The three workloads. Each is a closed loop with one client: the next
invocation starts only when the previous one has exited, and one child
process runs at a time.

* ``quick-cli``: short ``ci``/``estimate``/``plan``/``bound-table`` calls
  as a script or CI job fires them. Compute takes microseconds, so an op
  is interpreter start, package import and argparse; ingest and
  simulation are bypassed.
* ``ingest-csv``: an analyst's ``ci --input`` on a 1M-row comma-separated
  score file with ``--threshold``. Nearly all the work is in ``ingest``
  (delimited parser, score parsing).
* ``verify``: a methodologist's ``simulate`` at the README reference
  configuration followed by ``bootstrap-check`` with 1M resamples. The
  work is in ``simulation`` and its calls into ``estimation``; ingest is
  not used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from inputs import Invocation, quick_cli_cycle, record_file


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[tuple[Invocation, ...]]  # cycled in order; one op is one or more calls
    min_ops: int  # ops always measured, even past the time budget
    # Reference processes per measurement around each op; long ops take
    # several so the reference spans more of the host's speed.
    reference_reps: int
    inputs: dict  # sizes recorded in the result
    expected_spans: tuple[str, ...]
    # (metric, subcommand, work per call): work per second of that
    # subcommand's median process wall time.
    rates: tuple[tuple[str, str, int], ...] = field(default=())


_COMMON_SPANS = ("cli.main", "cli.build_parser")
_CI_SPANS = ("estimation.confidence_interval", "estimation.normal_quantile")


def quick_cli(seed: int) -> Workload:
    cycle = quick_cli_cycle(seed)
    return Workload(
        name="quick-cli",
        ops=[(call,) for call in cycle],
        min_ops=len(cycle),
        reference_reps=1,
        inputs={"cycle_invocations": len(cycle)},
        expected_spans=_COMMON_SPANS + _CI_SPANS
        + ("planning.required_total", "planning.bound_table"),
    )


def ingest_csv(seed: int) -> Workload:
    record = record_file(seed)
    argv = ["ci", "--input", record.path, "--threshold", record.threshold,
            "--beta", "0.5", "--format", "json"]
    expect = {"command": "ci", "format": "json", "counts": record.counts, "beta": "0.5"}
    return Workload(
        name="ingest-csv",
        ops=[(Invocation(tuple(argv), expect),)],
        min_ops=3,
        reference_reps=5,
        inputs={"rows": record.rows, "bytes": record.bytes, "counts": list(record.counts)},
        expected_spans=_COMMON_SPANS + _CI_SPANS + ("ingest.ingest",),
        rates=(("rows_per_s", "ci", record.rows),),
    )


# README reference configuration. Every op uses the same simulation seed,
# so its JSON must be byte-identical across the ops of a run.
SIMULATE = {"pz": "0.5", "mu": "2.5", "threshold": "1", "n": "1000",
            "replications": "10000", "beta": "0.5", "seed": "0"}
BOOTSTRAP = {"counts": (300, 60, 40, 600), "beta": "0.5", "resamples": "1000000", "seed": "0"}


def verify(seed: int) -> Workload:
    simulate_argv = ["simulate"]
    for key, value in SIMULATE.items():
        simulate_argv += [f"--{key}", value]
    bootstrap_argv = [
        "bootstrap-check", "--counts", ",".join(map(str, BOOTSTRAP["counts"])),
        "--beta", BOOTSTRAP["beta"], "--resamples", BOOTSTRAP["resamples"],
        "--seed", BOOTSTRAP["seed"],
    ]
    op = (
        Invocation(tuple(simulate_argv + ["--format", "json"]),
                   {"command": "simulate", "format": "json", "config": SIMULATE}),
        Invocation(tuple(bootstrap_argv + ["--format", "json"]),
                   {"command": "bootstrap-check", "format": "json", **BOOTSTRAP}),
    )
    return Workload(
        name="verify",
        ops=[op],
        min_ops=3,
        reference_reps=5,
        inputs={"n": int(SIMULATE["n"]), "replications": int(SIMULATE["replications"]),
                "resamples": int(BOOTSTRAP["resamples"])},
        expected_spans=_COMMON_SPANS + _CI_SPANS + (
            "simulation.run_simulation", "simulation.replication_estimates",
            "simulation.histogram_summary", "simulation.bootstrap_se"),
        rates=(("replications_per_s", "simulate", int(SIMULATE["replications"])),
               ("resamples_per_s", "bootstrap-check", int(BOOTSTRAP["resamples"]))),
    )


WORKLOADS = {
    "quick-cli": quick_cli,
    "ingest-csv": ingest_csv,
    "verify": verify,
}
