"""Seeded inputs for the workloads.

Everything here is a pure function of the seed, drawn with the standard
library's ``random.Random`` so the same seed gives the same bytes on any
machine. The generator records the exact confusion counts it wrote; the
oracle checks the program's output against those, never against the
program itself.

The score file is large (1M rows), so it is cached per (seed, rows) under
``CACHE_DIR`` in the checkout and made before any timing starts.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import weights

CACHE_DIR = Path(".perfbench_cache")
INPUT_DIR = CACHE_DIR / "inputs"
RECORD_ROWS = 1_000_000

# Score files carry four decimals; predictions compare integer units, so
# "score > threshold" is decided exactly, with no float ties.
_SCORE_UNITS = 10_000


@dataclass(frozen=True)
class RecordFile:
    path: str
    rows: int
    bytes: int
    counts: tuple[int, int, int, int]  # tp, fn, fp, tn
    threshold: str  # the --threshold argument


def _cell(z: int, a: int) -> int:
    # index into (tp, fn, fp, tn)
    return (0 if a else 1) if z else (2 if a else 3)


def _score_csv(rng: random.Random, rows: int) -> tuple[list[str], tuple, str]:
    """Comma-separated ``z,score`` rows; returns lines, counts, threshold."""
    prevalence = rng.uniform(0.3, 0.5)
    shift = rng.uniform(1.5, 2.5)
    threshold_units = rng.randint(8_000, 12_000)
    counts = [0, 0, 0, 0]
    lines = ["z,score"]
    for _ in range(rows):
        z = 1 if rng.random() < prevalence else 0
        units = round(rng.gauss(shift * z, 1.0) * _SCORE_UNITS)
        counts[_cell(z, units > threshold_units)] += 1
        lines.append(f"{z},{units / _SCORE_UNITS:.4f}")
    return lines, tuple(counts), f"{threshold_units / _SCORE_UNITS:.4f}"


def record_file(seed: int, rows: int = RECORD_ROWS) -> RecordFile:
    """The seeded score file, generated on first use."""
    INPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = INPUT_DIR / f"score-csv-{seed}-{rows}.csv"
    meta_path = path.with_suffix(".json")
    if not (path.exists() and meta_path.exists()):
        lines, counts, threshold = _score_csv(random.Random(f"score-csv:{seed}"), rows)
        tmp = path.with_suffix(".tmp")
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, path)
        meta_path.write_text(json.dumps({"counts": counts, "threshold": threshold}))
    meta = json.loads(meta_path.read_text())
    return RecordFile(
        path=str(path),
        rows=rows,
        bytes=path.stat().st_size,
        counts=tuple(meta["counts"]),
        threshold=meta["threshold"],
    )


# ---------------------------------------------------------------------------
# quick-cli: a seeded cycle of short invocations
# ---------------------------------------------------------------------------

BETAS = ("0.5", "1", "2")
LEVELS = ("0.9", "0.95", "0.99")
# Weight pairs whose larger weight is a row of the bound table, so plan
# counts can be recomputed from the tabulated bound.
WEIGHT_PAIRS = ("0.6,0.4", "0.3,0.7", "0.9,0.1", "0.5,0.5", "0.8,0.2", "0.2,0.8")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments and what the oracle needs to check it."""

    argv: tuple[str, ...]
    expect: dict


def _counts(rng: random.Random) -> tuple[int, int, int, int]:
    n = rng.randint(500, 5000)
    positives = round(n * rng.uniform(0.2, 0.6))
    tp = max(1, round(positives * rng.uniform(0.6, 0.95)))
    fp = round((n - positives) * rng.uniform(0.05, 0.3))
    return tp, positives - tp, fp, n - positives - fp


def summary_arg(counts: tuple[int, int, int, int], fp_w: float, fn_w: float) -> str:
    """The --summary value N,TP_RATE,TVERSKY,TVERSKY_SQ implied by counts."""
    tp, fn, fp, tn = counts
    n = tp + fn + fp + tn
    tversky = tp / (tp + fp_w * fp + fn_w * fn)
    tversky_sq = tp / (tp + fp_w * fp_w * fp + fn_w * fn_w * fn)
    return f"{n},{tp / n!r},{tversky!r},{tversky_sq!r}"


def quick_cli_cycle(seed: int, rounds: int = 2) -> list[Invocation]:
    """The quick-cli argument cycle: ``rounds`` rounds of ten short calls,
    each round on freshly drawn counts and settings."""
    rng = random.Random(f"quick-cli:{seed}")
    cycle: list[Invocation] = []
    for _ in range(rounds):
        counts = _counts(rng)
        counts_arg = ",".join(map(str, counts))
        beta = rng.choice(BETAS)
        ab = rng.choice(WEIGHT_PAIRS)
        level = rng.choice(LEVELS)
        delta = f"{rng.uniform(0.005, 0.05):.3f}"
        ez = f"{rng.uniform(0.1, 0.9):.2f}"
        by_beta = {"beta": beta, "level": level}
        by_ab = {"ab": ab, "level": level}
        summary_beta = summary_arg(counts, *weights(beta, None))
        summary_ab = summary_arg(counts, *weights(None, ab))
        calls = [
            (["ci", "--counts", counts_arg, "--beta", beta, "--level", level, "--format", "json"],
             {"command": "ci", "counts": counts, **by_beta}),
            (["ci", "--counts", counts_arg, "--beta", beta, "--level", level],
             {"command": "ci", "counts": counts, **by_beta}),
            (["ci", "--summary", summary_beta, "--beta", beta, "--level", level, "--format", "json"],
             {"command": "ci", "counts": counts, **by_beta}),
            (["ci", "--summary", summary_ab, "--ab", ab, "--level", level],
             {"command": "ci", "counts": counts, **by_ab}),
            (["estimate", "--counts", counts_arg, "--beta", beta, "--format", "json"],
             {"command": "estimate", "counts": counts, "beta": beta}),
            (["plan", "--delta", delta, "--beta", beta, "--format", "json"],
             {"command": "plan", "delta": delta, "beta": beta}),
            (["plan", "--delta", delta, "--ez", ez, "--ab", ab, "--format", "json"],
             {"command": "plan", "delta": delta, "ez": ez, "ab": ab}),
            (["plan", "--delta", delta, "--ez", ez, "--ab", ab],
             {"command": "plan", "delta": delta, "ez": ez, "ab": ab}),
            (["bound-table", "--format", "json"], {"command": "bound-table"}),
            (["bound-table"], {"command": "bound-table"}),
        ]
        for argv, expect in calls:
            expect["format"] = "json" if "--format" in argv else "text"
            cycle.append(Invocation(tuple(argv), expect))
    return cycle
