"""Shared references used across test modules: the reference experiment,
and a plain per-row parser of delimited record files that the faster one
in ``tverskyci.ingest`` must agree with."""

import itertools
import math
from collections.abc import Iterator

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
