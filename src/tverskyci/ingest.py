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
does not grow with the number of rows but with the longest line. Under
tracemalloc (lines of 1 and 8 MiB) the count in one process peaks at twice
a line's size for a row it counts and four times for one it rejects; a
split range peaks at three times for any row it counts. A large regular
file whose header (or first JSON record) is line 1 is counted in byte
ranges on every CPU, the first in this process (see ``_split``); if any
range fails, the whole file is counted again in one process, which raises
the error of the first bad line. A range comes in text blocks of whole
lines, decoded as ``open`` decodes the file here; a block of score rows
that are each a bare 0 or 1 label and a finite score is counted at once,
and any other block goes through the loop the one-process count runs. That
loop counts common delimited rows by a few inline checks that keep no line
count and ends in the per-row parser, which gets any other row on the spot,
so errors are the same; its line number is worked out from the header's
line number, the rows counted and the blank lines skipped. An error quotes
at most 64 characters of a value. Input must be UTF-8 (a leading byte order
mark is ignored); anything else is a DataError. Lines end at ``\n``,
``\r\n`` or ``\r`` and are numbered from 1 as an editor numbers them; blank
lines are skipped but still counted.
"""

from __future__ import annotations

import errno
import itertools
import math
import operator
import os
from collections.abc import Callable, Iterable

from . import _INGEST_NAMES, MODES
from .errors import DataError, InvalidParameterError
from .estimation import ConfusionCounts, _quote, _require_finite

__all__ = sorted(_INGEST_NAMES)

_MIN_RANGE = 1 << 20  # bytes; a file is split only into ranges at least this long


def _parse_binary(raw: object, column: str, where: str) -> int:
    if isinstance(raw, str):
        raw = raw.strip()
        if raw in ("0", "1"):
            return int(raw)
    elif isinstance(raw, int) and not isinstance(raw, bool) and raw in (0, 1):
        return raw
    raise DataError(f"{where}: column {column!r} must be exactly 0 or 1, got {_quote(raw)}")


def _parse_score(raw: object, where: str) -> float:
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        value = float(raw)  # type: ignore[arg-type]
    except OverflowError:  # a JSON integer beyond the float range
        value = math.inf
    except (TypeError, ValueError):
        value = None  # raised below, so the error keeps no copy of float's message
    if value is None:
        raise DataError(f"{where}: column 'score' must be a number, got {_quote(raw)}")
    if isinstance(raw, bool) or not math.isfinite(value):
        raise DataError(f"{where}: column 'score' must be a finite number, got {_quote(raw)}")
    return value


def _resolve_mode(requested: str, value_column: str, path: str) -> str:
    found = "prediction" if value_column == "a" else "score"
    if requested != "auto" and requested != found:
        raise DataError(
            f"{path}: file is in {found} mode (column {value_column!r}) "
            f"but {requested} mode was requested"
        )
    return found


def ingest(path: str, mode: str = "auto", threshold: float = 0.5) -> ConfusionCounts:
    """Parse a record file into exact confusion counts.

    mode is "auto" (infer from the file), "prediction" (require column
    ``a``), or "score" (require column ``score``); threshold only applies
    in score mode.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):  # open takes an int for a descriptor
        raise InvalidParameterError(f"path must be a str, got {type(path).__name__}")
    if not isinstance(mode, str) or mode not in MODES:
        raise InvalidParameterError(f"mode must be one of {MODES}, got {_quote(mode)}")
    threshold = _require_finite(threshold, "threshold")
    try:
        cells = _count_file(path, mode, threshold, split=True)
        if cells is None:  # a range failed: one process finds its first bad line
            cells = _count_file(path, mode, threshold, split=False)
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None
    except OSError as exc:  # exc repeats path; a name too long to open is quoted once
        if exc.errno == errno.ENAMETOOLONG:
            raise DataError(f"{_quote(path)}: cannot read file: {exc.strerror}") from None
        raise DataError(f"{path}: cannot read file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: file is not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:  # open's, for a path holding a NUL
        raise DataError(f"{_quote(path)}: cannot read file: {exc}") from None
    if not any(cells):
        # Only a header can come without records: every JSON line is one.
        raise DataError(f"{path}: no data rows after the header")
    return ConfusionCounts(*cells)


def _count_file(path: str, mode: str, threshold: float, split: bool) -> list | None:
    """Count the records of path into (tp, fn, fp, tn), in byte ranges on
    every CPU if split and the file allows it; None if some range failed.
    Without split this is the serial count, which raises the error of the
    first bad line."""
    cells = [0, 0, 0, 0]
    with open(path, encoding="utf-8-sig") as fh:
        rows = ((i, line.strip()) for i, line in enumerate(fh, 1))
        first = next(((i, line) for i, line in rows if line), None)
        if first is None:
            raise DataError(f"{path}: file is empty")
        if first[1].startswith("{"):
            # The first record fixes the mode every other record must have.
            # json is loaded for JSON lines only.
            from json import loads

            count = _count_jsonl
            where, record, value_key = _json_record(*first, path, loads)
            mode = _resolve_mode(mode, value_key, path)
            _count_record(record["z"], record[value_key], mode, threshold, where, cells)
        else:
            count = _count_delimited
        ranges = []
        # The first range is counted after line 1, so split only if that is the
        # line first. The split code is compiled only for a file large enough to split.
        if split and first[0] == 1 and os.fstat(fh.fileno()).st_size >= 2 * _MIN_RANGE:
            from . import _split

            ranges = _split.cut(fh.buffer.fileno(), _MIN_RANGE)
        if not ranges:  # fh resumes just after the line first
            count(first, (fh,), mode, threshold, path, cells)
            return cells
        parts = _split.count_ranges(
            fh.buffer.fileno(),
            ranges,
            lambda blocks, part: count(first, blocks, mode, threshold, path, part),
        )
    return None if parts is None else [sum(column) for column in zip(cells, *parts)]


def _lines(block: Iterable | str) -> Iterable:
    """The lines of a block a count is handed: a file's own (the serial count),
    or a range's text block cut at each \\n, with no line after the last."""
    if not isinstance(block, str):
        return block
    lines = block.split("\n")
    return lines if lines[-1] else lines[:-1]


def _count_delimited(
    first: tuple[int, str], blocks: Iterable, mode: str, threshold: float, path: str, cells: list
) -> None:
    """Count the rows after the header row first into cells (tp, fn, fp, tn);
    blocks are the file resuming just after the header, or a range's text
    blocks. A line the per-row parser rejects is numbered from the totals:
    each line between it and the header was counted or blank."""
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
            f"got {_quote(columns)}"
        )
    z_at = 0 if columns[0] == "z" else 1
    resolved = _resolve_mode(mode, columns[1 - z_at], path)

    # Inline, a label must be 0 or 1 with at most a space on either side (a
    # file's last field keeps its newline), or other padding that str.strip
    # removes and that hides no second delimiter (a tab one can), and the value
    # is cut at the delimiter nearest it, so a row counted here has the two
    # fields that the per-row parser ending the loop counts the same way (float
    # strips no more than str.strip); that parser gets any other line.
    ends = ("", " ", "\n", " \n")
    binary = {pad + label + end: int(label) for label in "01" for pad in ("", " ") for end in ends}
    negative = {label: 3 - 2 * z for label, z in binary.items()}  # z -> its cell with a = 0
    scores, z_first, blanks, isfinite = resolved == "score", z_at == 0, 0, math.isfinite
    for block in blocks:
        if scores and isinstance(block, str):  # a range's block may be counted at once
            if _count_block(block, delimiter, z_first, threshold, cells):
                continue
        for line in _lines(block):
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
            except KeyError:  # a padded label, or a line for the per-row parser
                if delimiter not in (z.lstrip() if z_first else z.rstrip()):
                    try:
                        a = score > threshold if scores else binary[value.strip()]
                        cells[negative[z.strip()] - a] += 1
                        continue
                    except KeyError:
                        pass
            except ValueError:
                pass
            line = line.strip()  # the per-row parser; its z and value free the first cut
            if not line:
                blanks += 1
                continue
            where = f"{path}:{header_line_no + sum(cells) + blanks + 1}"
            if line.count(delimiter) != 1:
                raise DataError(f"{where}: expected 2 fields, got {line.count(delimiter) + 1}")
            z, value = line.split(delimiter)[:: 1 if z_first else -1]
            _count_record(z, value, resolved, threshold, where, cells)


def _count_block(block: str, delimiter: str, z_first: bool, threshold: float, cells: list) -> bool:
    """Count a text block of score rows into cells and return True if every
    row is a 0 or 1 label beside the delimiter, then a finite score (or the
    same the other way round), ended by a \\n; else count nothing and return
    False. Each row it counts, the per-line loop would count the same way.

    The block is checked by counting the labels that start (or end) a line
    and the fields of one split, and by float and a finite sum of the
    scores; the labels of the rows with score > threshold are then picked
    out in one pass, and counting the 1s among them gives tp."""
    if block[-1:] != "\n":
        return False
    if z_first:  # a \n before each row but the block's first
        one, zero = "\n1" + delimiter, "\n0" + delimiter
    else:
        one, zero = delimiter + "1\n", delimiter + "0\n"
    ones = block.count(one) + (z_first and block.startswith(one[1:]))
    rows = ones + block.count(zero) + (z_first and block.startswith(zero[1:]))
    # Labels and scores in turn. Each of the rows counted above has its own
    # line and delimiter, so two fields a row means that every line is such
    # a row and has no other delimiter.
    fields = block[:-1].replace("\n", delimiter).split(delimiter)
    if len(fields) != 2 * rows:
        return False
    try:
        scores = list(map(float, itertools.islice(fields, z_first, None, 2)))
    except ValueError:
        return False
    if not math.isfinite(sum(scores)):  # an inf or nan, or too large a sum
        return False
    # The labels of the rows predicted positive, score > threshold.
    labels = itertools.islice(fields, 1 - z_first, None, 2)
    above = list(itertools.compress(labels, map(operator.gt, scores, itertools.repeat(threshold))))
    tp = above.count("1")
    positives = len(above)
    cells[0] += tp
    cells[1] += ones - tp
    cells[2] += positives - tp
    cells[3] += rows - ones - positives + tp
    return True


def _count_jsonl(
    first: tuple[int, str], blocks: Iterable, mode: str, threshold: float, path: str, cells: list
) -> None:
    """Count the JSON lines of blocks, which follow the record first, into
    cells; each must be in mode, the one resolved from first."""
    from json import loads

    lines = itertools.chain.from_iterable(map(_lines, blocks))
    for line_no, line in enumerate(lines, first[0] + 1):
        line = line.strip()
        if line:
            where, record, value_key = _json_record(line_no, line, path, loads)
            if ("prediction" if value_key == "a" else "score") != mode:
                raise DataError(f"{where}: record switches to {value_key!r} mode mid-file")
            _count_record(record["z"], record[value_key], mode, threshold, where, cells)


def _json_record(
    line_no: int, line: str, path: str, loads: Callable[[str], object]
) -> tuple[str, dict, str]:
    """Where line is, its JSON record as decoded by loads (json.loads) and
    the record's value key."""
    where, reason = f"{path}:{line_no}", None
    try:
        record = loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        reason = getattr(exc, "msg", str(exc).partition(";")[0])
    except RecursionError:
        reason = "nested too deeply"
    if reason is not None:  # raised here, so the error keeps no copy of the line
        raise DataError(f"{where}: invalid JSON: {reason}")
    if not isinstance(record, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(record).__name__}")
    keys = set(record)
    if "a" in keys and "score" in keys:
        raise DataError(f"{where}: record has both 'a' and 'score'; datasets must use one mode")
    if "z" not in keys or not keys <= {"z", "a", "score"} or len(keys) != 2:
        raise DataError(
            f"{where}: record must have key 'z' plus exactly one of 'a' or 'score', "
            f"got keys {_quote(sorted(keys))}"
        )
    return where, record, "a" if "a" in keys else "score"


def _count_record(
    z: object, value: object, resolved: str, threshold: float, where: str, cells: list
) -> None:
    z = _parse_binary(z, "z", where)
    # The one place a value column becomes a prediction.
    if resolved == "prediction":
        a = _parse_binary(value, "a", where)
    else:
        a = _parse_score(value, where) > threshold
    cells[3 - 2 * z - a] += 1
