"""Read labeled prediction records from disk into confusion counts.

Two on-disk formats, both line-oriented:

* Delimited text with a header. Columns are ``z`` plus exactly one of
  ``a`` or ``score``, separated by a comma or a single tab (detected from
  the header). No quoting; surrounding whitespace is ignored.
* JSON lines. Each non-blank line is an object with key ``z`` plus
  exactly one of ``a`` or ``score``. Detected by a leading ``{``.

``z`` and ``a`` must be exactly 0 or 1 (probabilistic labels are
rejected); ``score`` must be a finite number and is thresholded into a
prediction via ``score > threshold``. Malformed rows raise a DataError
carrying the 1-based line number; rows are never skipped silently.

Files are streamed line by line and counted as they are parsed, so memory
does not grow with the number of rows. Common delimited rows are counted by
a few inline checks that keep no line count; any other row goes on the spot
through the per-row parser, so errors are the same, and its line number is
worked out then from the header's line number, the rows counted and the
blank lines skipped. Input must be UTF-8 (a leading byte order mark is
ignored); anything else is a DataError. Lines end at ``\n``, ``\r\n`` or
``\r`` and are numbered from 1 as an editor numbers them; blank lines are
skipped but still counted.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator

from .errors import DataError, InvalidParameterError
from .estimation import ConfusionCounts

__all__ = ["ingest"]

MODES = ("auto", "prediction", "score")


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
    except OverflowError:  # a JSON integer beyond the float range
        value = math.inf
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


def _json_record(line: str, where: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        reason = getattr(exc, "msg", str(exc).partition(";")[0])
        raise DataError(f"{where}: invalid JSON: {reason}") from None
    except RecursionError:
        raise DataError(f"{where}: invalid JSON: nested too deeply") from None
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(record).__name__}")
    return record


def ingest(path: str, mode: str = "auto", threshold: float = 0.5) -> ConfusionCounts:
    """Parse a record file into exact confusion counts.

    mode is "auto" (infer from the file), "prediction" (require column
    ``a``), or "score" (require column ``score``); threshold only applies
    in score mode.
    """
    if mode not in MODES:
        raise InvalidParameterError(f"mode must be one of {MODES}, got {mode!r}")
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise InvalidParameterError(f"threshold must be finite, got {threshold!r}")
    cells = [0, 0, 0, 0]  # tp, fn, fp, tn
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = enumerate(fh, 1)
            rows = ((i, line.strip()) for i, line in lines)
            rows = ((i, line) for i, line in rows if line)
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: file is empty")
            if first[1].startswith("{"):
                for z, a in _jsonl_pairs(itertools.chain((first,), rows), mode, threshold, path):
                    cells[3 - 2 * z - a] += 1
            else:  # rows has read through the header only
                _count_delimited(first, fh, mode, threshold, path, cells)
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


def _count_row(
    line: str, where: str, delimiter: str, z_at: int, resolved: str, threshold: float, cells: list
) -> bool:
    """The per-row parser of delimited text: count line into cells and return
    True, return False for a blank line, or raise a DataError."""
    fields = line.strip().split(delimiter)
    if fields == [""]:
        return False
    if len(fields) != 2:
        raise DataError(f"{where}: expected 2 fields, got {len(fields)}")
    z = _parse_binary(fields[z_at], "z", where)
    cells[3 - 2 * z - _prediction(fields[1 - z_at], resolved, threshold, where)] += 1
    return True


def _count_delimited(
    first: tuple[int, str], fh: Iterator[str], mode: str, threshold: float, path: str, cells: list
) -> None:
    """Count the rows after the header row first into cells (tp, fn, fp, tn);
    fh resumes just after the header. A line handed to _count_row is numbered
    from the totals: each line between it and the header was counted or blank."""
    header_line_no, header = first
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
    z_at = 0 if columns[0] == "z" else 1
    resolved = _resolve_mode(mode, columns[1 - z_at], path)

    # Inline, a label must be 0 or 1 with at most a space on either side (the
    # last field keeps its newline) and the value is cut at the delimiter
    # nearest it, so a row counted here has the two fields _count_row would
    # count the same way (float strips no more than str.strip); it gets any
    # other line.
    ends = ("", " ", "\n", " \n")
    binary = {pad + label + end: int(label) for label in "01" for pad in ("", " ") for end in ends}
    negative = {label: 3 - 2 * z for label, z in binary.items()}  # z -> its cell with a = 0
    scores, z_first, blanks, isfinite = resolved == "score", z_at == 0, 0, math.isfinite
    for line in fh:
        if z_first:
            z, _, value = line.rpartition(delimiter)
        else:
            value, _, z = line.partition(delimiter)
        try:
            if scores:
                score = float(value)
                if isfinite(score):
                    cells[negative[z] - (score > threshold)] += 1
                    continue
            else:
                cells[negative[z] - binary[value]] += 1
                continue
        except (KeyError, ValueError):
            pass
        where = f"{path}:{header_line_no + sum(cells) + blanks + 1}"
        blanks += not _count_row(line, where, delimiter, z_at, resolved, threshold, cells)


def _jsonl_pairs(
    rows: Iterator[tuple[int, str]], mode: str, threshold: float, path: str
) -> Iterator[tuple[int, int]]:
    resolved: str | None = None
    for line_no, line in rows:
        where = f"{path}:{line_no}"
        record = _json_record(line, where)
        keys = set(record)
        if "a" in keys and "score" in keys:
            raise DataError(f"{where}: record has both 'a' and 'score'; datasets must use one mode")
        if "z" not in keys or not keys <= {"z", "a", "score"} or len(keys) != 2:
            raise DataError(
                f"{where}: record must have key 'z' plus exactly one of 'a' or 'score', "
                f"got keys {sorted(keys)!r}"
            )
        value_key = "a" if "a" in keys else "score"
        if resolved is None:
            resolved = _resolve_mode(mode, value_key, path)
        elif ("prediction" if value_key == "a" else "score") != resolved:
            raise DataError(f"{where}: record switches to {value_key!r} mode mid-file")
        z = _parse_binary(record["z"], "z", where)
        yield z, _prediction(record[value_key], resolved, threshold, where)
