"""Shared references used across test modules: the reference experiment,
the formula oracle of ``perfbench/oracle.py``, exact small-sample moments
of a simulation by enumeration, and a plain per-row parser of delimited
record files that the faster one in ``tverskyci.ingest`` must agree with."""

import itertools
import math
import types
from collections import namedtuple
from collections.abc import Iterator
from pathlib import Path

from tverskyci import ConfusionCounts, DataError, ScoreModel, SimulationConfig, TverskyParams

# Balanced labels, unit-variance Gaussian scores shifted by 2.5 for
# positives, thresholded at 1, F0.5 weights.
REFERENCE_MODEL = ScoreModel(prevalence=0.5, shift=2.5, threshold=1.0)
REFERENCE_PARAMS = TverskyParams(0.8, 0.2)
REFERENCE_CONFIG = SimulationConfig(
    model=REFERENCE_MODEL,
    n=1000,
    replications=10000,
    params=REFERENCE_PARAMS,
    level=0.95,
    seed=0,
)


def _load_oracle() -> types.ModuleType:
    # Compiled from its source rather than imported, so that loading it
    # writes nothing under perfbench/.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    oracle = types.ModuleType("oracle")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), oracle.__dict__)
    return oracle


# The paper's formulas written out without tverskyci: interval, plan_counts,
# population_index and check, and their tolerance RTOL.
ORACLE = _load_oracle()


# ---------------------------------------------------------------------------
# Exact small-sample moments of run_simulation's report.
# ---------------------------------------------------------------------------

ExactMoments = namedtuple(
    "ExactMoments", "coverage degenerate_rate mean_estimate sd_estimates fourth_moment"
)


def exact_moments(model: ScoreModel, n: int, params: TverskyParams, level: float) -> ExactMoments:
    """What run_simulation estimates for n records of model, computed exactly.

    Lists every (tp, fn, fp, tn) with tp >= 1 that sums to n, weights each by
    its multinomial probability under model.cell_probabilities (all four must
    be positive), and takes its estimate and interval from the oracle. Returns
    the coverage of the oracle's population index, mean, sd and fourth central
    moment of the estimate, all given tp >= 1, and P(tp = 0). The samples are
    listed twice, once for the mean and once for the central moments, so
    memory does not grow with n; n = 30 has 4 960 of them.
    """
    logs = [math.log(p) for p in model.cell_probabilities]
    a, b = params
    theta = ORACLE.population_index(model.prevalence, model.shift, model.threshold, a, b)

    def samples() -> Iterator[tuple[float, float, bool]]:  # (probability, estimate, covered)
        for tp in range(1, n + 1):
            for fn in range(n - tp + 1):
                for fp in range(n - tp - fn + 1):
                    cells = (tp, fn, fp, n - tp - fn - fp)
                    log_p = math.lgamma(n + 1) + sum(
                        k * log - math.lgamma(k + 1) for k, log in zip(cells, logs)
                    )
                    got = ORACLE.interval(cells, a, b, level)
                    covered = got["ci_lower"] <= theta <= got["ci_upper"]
                    yield math.exp(log_p), got["estimate"], covered

    mass = first = covered_mass = 0.0
    for p, t, covered in samples():
        mass, first, covered_mass = mass + p, first + p * t, covered_mass + p * covered
    mean = first / mass
    second = fourth = 0.0
    for p, t, _ in samples():
        second, fourth = second + p * (t - mean) ** 2, fourth + p * (t - mean) ** 4
    return ExactMoments(
        coverage=covered_mass / mass,
        degenerate_rate=(1.0 - model.cell_probabilities[0]) ** n,
        mean_estimate=mean,
        sd_estimates=math.sqrt(second / mass),
        fourth_moment=fourth / mass,
    )


# ---------------------------------------------------------------------------
# The delimited-file parser as it was before ingest counted common rows
# inline: every row is stripped, split and parsed by the helpers below.
# ---------------------------------------------------------------------------


def reference_ingest(path: str, mode: str = "auto", threshold: float = 0.5) -> ConfusionCounts:
    """ingest for delimited files, one generator step and helper call per row."""
    threshold = float(threshold)
    cells = [0, 0, 0, 0]  # tp, fn, fp, tn
    try:
        with open(path, encoding="utf-8-sig") as fh:
            rows = ((i, line.strip()) for i, line in enumerate(fh, 1))
            rows = ((i, line) for i, line in rows if line)
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: file is empty")
            assert not first[1].startswith("{"), "delimited files only"
            for z, a in _delimited_pairs(itertools.chain((first,), rows), mode, threshold, path):
                cells[3 - 2 * z - a] += 1
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: file is not UTF-8 text ({exc.reason})") from None
    if not any(cells):
        # Only a header can come without records: every JSON line is one.
        raise DataError(f"{path}: no data rows after the header")
    return ConfusionCounts(*cells)


def _parse_binary(raw: object, column: str, where: str) -> int:
    if isinstance(raw, str):
        raw = raw.strip()
        if raw in ("0", "1"):
            return int(raw)
    elif isinstance(raw, int) and not isinstance(raw, bool) and raw in (0, 1):
        return raw
    raise DataError(f"{where}: column {column!r} must be exactly 0 or 1, got {raw!r}")


def _parse_score(raw: object, where: str) -> float:
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        value = float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise DataError(f"{where}: column 'score' must be a number, got {raw!r}") from None
    if isinstance(raw, bool) or not math.isfinite(value):
        raise DataError(f"{where}: column 'score' must be a finite number, got {raw!r}")
    return value


def _prediction(raw: object, resolved: str, threshold: float, where: str) -> int:
    # The one place a value column becomes a prediction.
    if resolved == "prediction":
        return _parse_binary(raw, "a", where)
    return 1 if _parse_score(raw, where) > threshold else 0


def _resolve_mode(requested: str, value_column: str, path: str) -> str:
    found = "prediction" if value_column == "a" else "score"
    if requested != "auto" and requested != found:
        raise DataError(
            f"{path}: file is in {found} mode (column {value_column!r}) "
            f"but {requested} mode was requested"
        )
    return found


def _delimited_pairs(
    rows: Iterator[tuple[int, str]], mode: str, threshold: float, path: str
) -> Iterator[tuple[int, int]]:
    header_line_no, header = next(rows)
    delimiter = "\t" if "\t" in header else ","
    columns = [c.strip() for c in header.split(delimiter)]
    where = f"{path}:{header_line_no}"
    if "a" in columns and "score" in columns:
        raise DataError(f"{where}: header has both 'a' and 'score'; datasets must use one mode")
    expected = {"z", "a"} if "a" in columns else {"z", "score"}
    if set(columns) != expected or len(columns) != 2:
        raise DataError(
            f"{where}: header must be exactly columns 'z' and 'a' or 'z' and 'score', "
            f"got {columns!r}"
        )
    value_column = columns[0] if columns[0] != "z" else columns[1]
    resolved = _resolve_mode(mode, value_column, path)
    z_at = columns.index("z")

    for line_no, line in rows:
        fields = line.split(delimiter)
        where = f"{path}:{line_no}"
        if len(fields) != 2:
            raise DataError(f"{where}: expected 2 fields, got {len(fields)}")
        z = _parse_binary(fields[z_at], "z", where)
        yield z, _prediction(fields[1 - z_at], resolved, threshold, where)
