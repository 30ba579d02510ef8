import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverskyci import (
    ConfusionCounts,
    DataError,
    InvalidParameterError,
    TverskyParams,
    ingest,
    tversky_index,
)
from tverskyci.cli import main

from tests._reference import reference_ingest

_ingest = importlib.import_module("tverskyci.ingest")  # the package exports the function
_ranges = importlib.import_module("tverskyci._split")


@contextlib.contextmanager
def _split(cpus=3, min_range=1):
    """Split every file of at least min_range bytes per CPU over cpus CPUs;
    yields the pids that os.fork returns to ingest and the split argument
    of each count of the whole file (a second one is the serial rerun)."""
    forks, fork = [], os.fork
    counts, count_file = [], _ingest._count_file

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def counted_count_file(*args, split):
        counts.append(split)
        return count_file(*args, split=split)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ingest, "_MIN_RANGE", min_range)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(os, "fork", counted_fork)
        patch.setattr(_ingest, "_count_file", counted_count_file)
        yield forks, counts


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


_PID = os.getpid()  # the process that imported this file


def test_a_split_ingest_returns_in_the_process_that_called_it(tmp_path):
    path = _write(tmp_path, "records.csv", "z,a\n1,1\n0,0\n1,0\n")
    with _split() as (forks, counts):
        assert ingest(path) == ConfusionCounts(tp=1, fn=1, fp=0, tn=1)
    assert len(forks) == 2
    assert counts == [True]
    assert os.getpid() == _PID


def _rows_from_counts(counts):
    rows = [(1, 1)] * counts.tp + [(1, 0)] * counts.fn
    rows += [(0, 1)] * counts.fp + [(0, 0)] * counts.tn
    return rows


def test_prediction_csv_one_record_per_cell(tmp_path):
    path = _write(tmp_path, "tiny.csv", "z,a\n1,1\n1,0\n0,1\n0,0\n")
    assert ingest(path) == ConfusionCounts(1, 1, 1, 1)


def test_score_csv_thresholded(tmp_path):
    path = _write(tmp_path, "scores.csv", "z,score\n1,0.9\n1,0.2\n0,0.7\n0,0.1\n")
    assert ingest(path, threshold=0.5) == ConfusionCounts(1, 1, 1, 1)


def test_score_threshold_is_strict(tmp_path):
    path = _write(tmp_path, "edge.csv", "z,score\n1,0.5\n1,0.6\n")
    assert ingest(path, threshold=0.5) == ConfusionCounts(1, 1, 0, 0)


def test_tab_delimited(tmp_path):
    path = _write(tmp_path, "tabs.tsv", "z\ta\n1\t1\n0\t0\n")
    assert ingest(path) == ConfusionCounts(1, 0, 0, 1)


def test_column_order_can_be_swapped(tmp_path):
    path = _write(tmp_path, "swapped.csv", "a,z\n1,0\n1,1\n")
    assert ingest(path) == ConfusionCounts(1, 0, 1, 0)


def test_jsonl_prediction_mode(tmp_path):
    lines = [json.dumps({"z": z, "a": a}) for z, a in [(1, 1), (1, 0), (0, 1), (0, 0)]]
    path = _write(tmp_path, "records.jsonl", "\n".join(lines) + "\n")
    assert ingest(path) == ConfusionCounts(1, 1, 1, 1)


def test_jsonl_score_mode(tmp_path):
    lines = [
        json.dumps({"z": z, "score": s})
        for z, s in [(1, 0.9), (1, 0.2), (0, 0.7), (0, 0.1)]
    ]
    path = _write(tmp_path, "records.jsonl", "\n".join(lines) + "\n")
    assert ingest(path, mode="score", threshold=0.5) == ConfusionCounts(1, 1, 1, 1)


def test_synthetic_validation_file(tmp_path):
    # 535 records whose summaries sit near the worked retail example; the
    # assertions are against this file's own exact ratios.
    counts = ConfusionCounts(286, 43, 46, 160)
    rows = _rows_from_counts(counts)
    path = _write(tmp_path, "retail.csv", "z,a\n" + "\n".join(f"{z},{a}" for z, a in rows) + "\n")
    parsed = ingest(path)
    assert parsed == counts
    assert parsed.n == 535
    assert parsed.tp_rate == 286 / 535
    assert parsed.label_rate == 329 / 535
    index = tversky_index(parsed, TverskyParams(0.8, 0.2))
    assert index == pytest.approx(286 / (286 + 0.8 * 46 + 0.2 * 43), rel=1e-15)
    # within rounding distance of the published summary values
    assert parsed.tp_rate == pytest.approx(0.5346, abs=5e-5)
    assert parsed.label_rate == pytest.approx(0.615, abs=5e-4)


def test_round_trip_preserves_exact_counts(tmp_path):
    rng = np.random.default_rng(8)
    for i in range(20):
        counts = ConfusionCounts(*(int(v) for v in rng.integers([1, 0, 0, 0], 60, size=4)))
        rows = _rows_from_counts(counts)
        rng.shuffle(rows)
        path = _write(
            tmp_path, f"rt{i}.csv", "z,a\n" + "\n".join(f"{z},{a}" for z, a in rows) + "\n"
        )
        assert ingest(path) == counts


def test_byte_order_mark_tolerated(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("z,a\n1,1\n0,0\n", encoding="utf-8-sig")
    assert ingest(str(path)) == ConfusionCounts(1, 0, 0, 1)


def test_missing_file():
    with pytest.raises(DataError, match="file not found"):
        ingest("/does/not/exist.csv")


def test_a_path_the_system_rejects_is_a_data_error(tmp_path):
    # A directory, and a name holding a NUL, which open() refuses itself.
    with pytest.raises(DataError) as directory:
        ingest(str(tmp_path))
    assert str(directory.value).startswith(f"{tmp_path}: cannot read file: ")
    with pytest.raises(DataError, match=r"^'a\\x00b': cannot read file: embedded null byte$"):
        ingest("a\0b")


def test_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="empty"):
        ingest(path)


def test_header_only_file(tmp_path):
    path = _write(tmp_path, "header.csv", "z,a\n")
    with pytest.raises(DataError, match="no data rows"):
        ingest(path)


def test_parse_error_carries_line_number(tmp_path):
    path = _write(tmp_path, "bad.csv", "z,a\n1,1\n2,1\n0,0\n")
    with pytest.raises(DataError, match=r"bad\.csv:3"):
        ingest(path)


def test_probabilistic_labels_rejected(tmp_path):
    path = _write(tmp_path, "soft.csv", "z,a\n1,0.7\n")
    with pytest.raises(DataError, match=r"soft\.csv:2.*'a'"):
        ingest(path)


def test_wrong_field_count_rejected(tmp_path):
    path = _write(tmp_path, "ragged.csv", "z,a\n1,1,1\n")
    with pytest.raises(DataError, match="expected 2 fields"):
        ingest(path)


def test_mixed_mode_header_rejected(tmp_path):
    path = _write(tmp_path, "mixed.csv", "z,a,score\n1,1,0.9\n")
    with pytest.raises(DataError, match="both 'a' and 'score'"):
        ingest(path)


def test_unknown_column_rejected(tmp_path):
    path = _write(tmp_path, "extra.csv", "z,prob\n1,0.9\n")
    with pytest.raises(DataError, match="header must be exactly"):
        ingest(path)


def test_mode_mismatch_rejected(tmp_path):
    path = _write(tmp_path, "pred.csv", "z,a\n1,1\n")
    with pytest.raises(DataError, match="prediction mode"):
        ingest(path, mode="score")


def test_jsonl_mixed_mode_record_rejected(tmp_path):
    path = _write(tmp_path, "both.jsonl", '{"z": 1, "a": 1, "score": 0.9}\n')
    with pytest.raises(DataError, match="both 'a' and 'score'"):
        ingest(path)


def test_jsonl_mode_switch_rejected(tmp_path):
    text = '{"z": 1, "a": 1}\n{"z": 0, "score": 0.4}\n'
    path = _write(tmp_path, "switch.jsonl", text)
    with pytest.raises(DataError, match=r"switch\.jsonl:2.*mid-file"):
        ingest(path)


def test_jsonl_boolean_rejected(tmp_path):
    path = _write(tmp_path, "bool.jsonl", '{"z": true, "a": 1}\n')
    with pytest.raises(DataError, match="exactly 0 or 1"):
        ingest(path)


def test_jsonl_invalid_json_line_numbered(tmp_path):
    path = _write(tmp_path, "broken.jsonl", '{"z": 1, "a": 1}\n{"z": 1,\n')
    with pytest.raises(DataError, match=r"broken\.jsonl:2"):
        ingest(path)


def test_jsonl_non_finite_score_rejected(tmp_path):
    path = _write(tmp_path, "inf.jsonl", '{"z": 1, "score": Infinity}\n')
    with pytest.raises(DataError, match="finite"):
        ingest(path)


def test_invalid_mode_and_threshold():
    with pytest.raises(InvalidParameterError):
        ingest("whatever.csv", mode="guess")
    with pytest.raises(InvalidParameterError):
        ingest("whatever.csv", threshold=float("nan"))


@pytest.mark.parametrize("path, mode", [(1, "auto"), (True, "auto"), ("x.csv", np.array(["auto"]))])
def test_a_path_or_mode_of_the_wrong_type_is_rejected_before_any_open(path, mode):
    # open would take an int path for a file descriptor and close it.
    with pytest.raises(InvalidParameterError):
        ingest(path, mode=mode)
    os.fstat(1)


def test_non_utf8_file_is_a_data_error(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"z,a\n1,1\n\xff\xfe\n")
    with pytest.raises(DataError, match=r"latin\.csv.*UTF-8"):
        ingest(str(path))


def test_line_numbers_count_only_newlines(tmp_path):
    # \f, \v, \x1c-\x1e, \x85, \u2028 and \u2029 do not end a line; the bad
    # row is on physical line 4 whatever the earlier lines contain.
    for odd in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        path = _write(tmp_path, "odd.csv", f"z,a\n1,1{odd}\n0,0\n1,7\n")
        with pytest.raises(DataError, match=r"odd\.csv:4:"):
            ingest(path)
    path = _write(tmp_path, "mixed.csv", "z,a\r\n1,1\r0,0\n\n1,7\n")
    with pytest.raises(DataError, match=r"mixed\.csv:5:"):
        ingest(path)


_THRESHOLD = 0.25


@st.composite
def _record_files(draw):
    """A record file as bytes, plus the counts it must ingest to."""
    score_mode = draw(st.booleans())
    if score_mode:
        values = st.one_of(st.floats(-1e6, 1e6), st.just(_THRESHOLD))
    else:
        values = st.sampled_from([0, 1])
    records = draw(st.lists(st.tuples(st.sampled_from([0, 1]), values), min_size=1, max_size=40))
    key = "score" if score_mode else "a"
    layout = draw(st.sampled_from(["csv", "tsv", "jsonl"]))
    if layout == "jsonl":
        lines = [json.dumps({"z": z, key: v}) for z, v in records]
    else:
        sep = "," if layout == "csv" else "\t"
        swap = draw(st.booleans())
        cells = [(key, "z") if swap else ("z", key)]
        cells += [(repr(v), repr(z)) if swap else (repr(z), repr(v)) for z, v in records]
        lines = [sep.join(pair) for pair in cells]
    text = ""
    for line in lines:
        text += "".join(draw(st.lists(st.sampled_from(["\n", "  \n", "\r\n"]), max_size=2)))
        text += line + draw(st.sampled_from(["\n", "\r\n"]))
    raw = text.encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    cells = [0, 0, 0, 0]
    for z, v in records:
        a = int(v > _THRESHOLD) if score_mode else v
        cells[(1 - z) * 2 + (1 - a)] += 1
    return raw, ConfusionCounts(*cells)


@settings(deadline=None)
@given(_record_files())
def test_ingest_round_trip_property(tmp_path_factory, case):
    raw, expected = case
    path = tmp_path_factory.mktemp("records") / "records.txt"
    path.write_bytes(raw)
    assert ingest(str(path), threshold=_THRESHOLD) == expected
    with _split() as (_, counts):
        assert ingest(str(path), threshold=_THRESHOLD) == expected
    assert counts == [True]  # the ranges counted it: no serial rerun


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


@settings(deadline=None, max_examples=60)
@given(_record_files())
def test_ci_of_a_file_prints_what_ci_of_its_counts_prints(tmp_path_factory, case):
    raw, cells = case
    path = tmp_path_factory.mktemp("records") / "records.txt"
    path.write_bytes(raw)
    argv = ("ci", "--threshold", repr(_THRESHOLD), "--format", "json")
    expected = _cli(*argv, "--counts", ",".join(map(str, cells)))
    assert _cli(*argv, "--input", str(path)) == expected
    with _split() as (_, counts):
        assert _cli(*argv, "--input", str(path)) == expected
    assert counts == [True]  # the ranges counted it: no serial rerun


def test_jsonl_score_beyond_the_float_range_rejected(tmp_path):
    text = '{"z": 0, "score": 0.5}\n{"z": 1, "score": -%d}\n' % 10**400
    path = _write(tmp_path, "huge.jsonl", text)
    with pytest.raises(DataError, match=r"huge\.jsonl:2: column 'score' must be a finite number"):
        ingest(path)


def test_jsonl_nested_too_deeply_rejected(tmp_path):
    depth = 100_000
    text = '{"z": 0, "a": 0}\n{"z": 1, "a": %s%s}\n' % ("[" * depth, "]" * depth)
    path = _write(tmp_path, "deep.jsonl", text)
    with pytest.raises(DataError, match=r"deep\.jsonl:2: invalid JSON: nested too deeply"):
        ingest(path)


def test_jsonl_integer_past_the_digit_limit_rejected(tmp_path):
    path = _write(tmp_path, "digits.jsonl", '{"z": 1, "score": %s}\n' % ("9" * 5000))
    with pytest.raises(DataError, match=r"digits\.jsonl:1: invalid JSON: Exceeds the limit"):
        ingest(path)


# A bad field of 1 MiB, in each value column: the message quotes its first
# 64 characters and gives its length, on both record formats.
_HUGE_FIELDS = {
    "label": ("a", "0" * (1 << 20), "column 'a' must be exactly 0 or 1"),
    "word": ("score", "x" * (1 << 20), "column 'score' must be a number"),
    "inf": ("score", "1" + "0" * (1 << 20), "column 'score' must be a finite number"),
}


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
@pytest.mark.parametrize("column, field, message", _HUGE_FIELDS.values(), ids=list(_HUGE_FIELDS))
def test_a_huge_bad_field_is_quoted_by_its_start_and_length(
    tmp_path, column, field, message, suffix
):
    if suffix == ".csv":
        text, line_no = f"z,{column}\n0,0\n1,{field}\n", 3
    else:
        text, line_no = json.dumps({"z": 1, column: field}) + "\n", 1
    path = _write(tmp_path, "huge" + suffix, text)
    with pytest.raises(DataError) as info:
        ingest(path)
    quoted = f"{field[:64]!r}... ({len(field)} characters)"
    assert str(info.value) == f"{path}:{line_no}: {message}, got {quoted}"


@pytest.mark.parametrize(
    "name, text",
    [
        ("score.csv", "z,score\n1," + "x" * (1 << 20) + "\n"),
        ("broken.jsonl", '{"z": 1, "a": "' + "x" * (1 << 20) + '"\n'),
    ],
    ids=["score", "JSON"],
)
def test_a_rejected_line_leaves_no_copy_in_the_errors_context(tmp_path, name, text):
    # The error float() or json gave, which holds the whole field or line,
    # is dropped before the DataError is raised.
    with pytest.raises(DataError) as info:
        ingest(_write(tmp_path, name, text))
    assert info.value.__context__ is None


def test_a_long_bad_value_that_is_not_a_string_is_cut_too(tmp_path):
    path = _write(tmp_path, "list.jsonl", '{"z": 1, "a": [%s]}\n' % ", ".join(["0"] * 1000))
    with pytest.raises(DataError) as info:
        ingest(path)
    quoted = f"[{', '.join(['0'] * 1000)}]"
    assert str(info.value).endswith(f"got {quoted[:64]}... ({len(quoted)} characters)")


_HEADER = "header must be exactly columns 'z' and 'a' or 'z' and 'score', got "
_KEYS = "record must have key 'z' plus exactly one of 'a' or 'score', got keys "


@pytest.mark.parametrize(
    "suffix, template, message, listed",
    [
        (".csv", "z,{}\n1,1\n", _HEADER, lambda name: ["z", name]),
        (".jsonl", '{{"z": 1, "a": 1, "{}": 0}}\n', _KEYS, lambda name: sorted(["z", "a", name])),
    ],
    ids=["header", "JSON keys"],
)
@pytest.mark.parametrize("length", [4, 1 << 20], ids=["short", "1 MiB"])
def test_a_huge_column_or_key_list_is_quoted_by_its_start_and_length(
    tmp_path, capsys, suffix, template, message, listed, length
):
    name = "x" * length
    path = _write(tmp_path, "names" + suffix, template.format(name))
    assert main(["ci", "--input", path]) == 2
    err = capsys.readouterr().err
    quoted = repr(listed(name))
    if len(quoted) > 64:
        quoted = f"{quoted[:64]}... ({len(quoted)} characters)"
    assert err == f"tverskyci: error: {path}:1: {message}{quoted}\n"
    assert len(err.encode()) < 1024


# Values a quick check could get wrong: float() accepts underscores, nan,
# inf, signed zero and Arabic-Indic digits, none of them a 0/1 label; " 1 "
# is a label once stripped; 1e400 overflows to inf; 0.25 ties the threshold.
_ODD_VALUES = ["1_0", "nan", "inf", "-0", "\u0661", " 1 ", "1.0", "", "x"]
_ODD_SCORES = _ODD_VALUES + ["-inf", "1e400", "0.25"]
# Whitespace that str.strip removes; float() strips all of it but \x1c.
_PADS = ["", "", " ", "  ", "\f", "\v", "\x1c", "\x85", "\u2028"]


@st.composite
def _delimited_files(draw):
    """A delimited record file as bytes and the mode to ask for: padded rows
    between blank lines, some with the wrong field count or an odd value."""
    value_column = draw(st.sampled_from(["a", "score"]))
    delimiter = draw(st.sampled_from([",", "\t"]))
    columns = ["z", value_column]
    if draw(st.booleans()):
        columns.reverse()

    def value(column):
        if column == "score":
            return draw(st.one_of(st.just("0.25"), st.floats(-2, 2).map(repr)))
        return draw(st.sampled_from(["0", "1"]))

    def pad(text):
        return draw(st.sampled_from(_PADS)) + text + draw(st.sampled_from(_PADS))

    rows = []
    spread = draw(st.sampled_from([3, 10, 40]))  # about one row in spread is irregular
    for _ in range(draw(st.integers(0, 40))):
        row = [value(c) for c in columns]
        kind = "regular"
        if draw(st.integers(0, spread)) == 0:
            kind = draw(st.sampled_from(["1 field", "3 fields"] + ["odd value"] * 3))
        if kind == "1 field":
            del row[1]
        elif kind == "3 fields":
            row.append(value("z"))
        elif kind == "odd value":
            at = draw(st.integers(0, 1))
            row[at] = draw(st.sampled_from(_ODD_SCORES if columns[at] == "score" else _ODD_VALUES))
        rows.append(row)
    lines = [delimiter.join(pad(c) for c in columns)]
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\f", " \t ", "\u2028"])))
        lines.append(delimiter.join(pad(field) for field in row))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    raw = text.encode("utf-8")
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    found = "prediction" if value_column == "a" else "score"
    mode = draw(st.sampled_from(["auto", "auto", found, "prediction", "score"]))
    return raw, mode


def _outcome(parse, path, mode):
    try:
        return parse(path, mode=mode, threshold=_THRESHOLD)
    except DataError as exc:
        return f"DataError: {exc}"


@settings(deadline=None, max_examples=200)
@given(_delimited_files())
@example((b"z,score\n1,0.5\n0,nan\n", "auto"))
@example((b"score,z\n0.5,1\n0.1,0,1\n", "auto"))
@example((b"z\ta\n1\t1\n0\t1.0\n", "auto"))
@example((b"a,z\n1,\x1c1\n1,1\x1c\n", "prediction"))
@example((b"z,score\n\x1c1,0.5\x1c\n1,1_0\n0,\xd9\xa1 \n", "score"))
# Line numbers after blank lines before the header, padded and blank rows.
@example((b"\n \n\nz,score\n1,0.5\n\n 0 , 0.1 \n \n1,0.7\n0,x\n", "auto"))
@example((b"z,a\r1,1\r\r0,0\r1,0.5\r", "auto"))
@example((b"score,z\n0.5,1\n\n0.1, 0\n0.2,1,0\n", "auto"))
@example((b"z\ta\n1\t1\n\n0\t0\n1\t7\n", "auto"))
# float strips a tab, so a doubled tab must not pass for one delimiter.
@example((b"z\tscore\n1\t\t0.5\n", "auto"))
@example((b"score\tz\n0.5\t\t1\n", "auto"))
@example((b"a\tz\n1\t\t1\n", "auto"))
# Padding beside a tab delimiter can hide a second one.
@example((b"z\ta\n1 \t\t0\n", "auto"))
@example((b"a\tz\n0\t\t 1\n", "auto"))
# Split over three CPUs, these cut just after the \n of a \r\n; before blank
# lines; before a row that starts with a byte order mark; put a bad row, or
# a non-UTF-8 byte past the first 8 KiB, in the last range; and put a bad
# row in the first range and a non-UTF-8 byte in the last.
@example((b"z,score\r\n1,0.5\r\n0,0.25\r\n1,0.75\r\n0,0.1\r\n1,0.9\r\n0,0.3\r\n", "auto"))
@example((b"z,a\n1,1\n\n\n0,0\n\n\n1,0\n\r\n\n0,1\n", "auto"))
@example((b"\xef\xbb\xbfz,a\n1,1\n0,0\n\xef\xbb\xbf1,0\n0,1\n1,1\n", "auto"))
@example((b"z,a\n1,1\n0,0\n1,0\n0,1\n1,1\n1,7\n", "auto"))
@example((b"z,a\n" + b"1,1\n" * 3000 + b"\xff,1\n", "auto"))
@example((b"z,a\n1,7\n" + b"1,1\n" * 3000 + b"\xff,1\n", "auto"))
# Split, a range is read in blocks of 16 bytes, and a block of score rows may
# be counted at once. In these, the last range is one block with as many
# delimiters as lines, but a row with none and a row with two.
@example((b"z,score\n0\n1,0.5,0.5\n", "auto"))
@example((b"score,z\n1\n0.5,1,0\n", "auto"))
# Scores float() takes, and scores that are not finite.
@example((b"z,score\n1,1_0\n0,+1\n1,.5\n0,2\n1, 0.5\n0,0.25\n1,-0\n", "auto"))
@example((b"z,score\n1,0.5\n0,0.25\n1,0.75\n1,inf\n", "auto"))
@example((b"z,score\n1,0.5\n0,0.25\n1,0.75\n0,nan\n", "auto"))
@example((b"score,z\n0.5,1\n0.25,0\n0.75,1\n1e400,1\n", "auto"))
# Padded labels, a tab, the score first, \r\n and a lone \r, no last newline.
@example((b"z,score\n1,0.5\n 0,0.25\n1 ,0.75\n0,0.1\n1,0.9\n", "auto"))
@example((b"score\tz\n0.5\t1\n0.25\t0\n0.75\t 1\n0.1\t0\n", "auto"))
@example((b"z\tscore\r\n1\t0.5\r\n0\t0.25\r\n1\t0.75\r\n0\t0.1\r\n", "auto"))
@example((b"score,z\r0.5,1\r0.25,0\r0.75,1\r0.1,0\r0.9,1\r", "auto"))
@example((b"z,score\n1,0.5\n0,0.25\n1,0.75\n0,0.1\n1,0.9", "auto"))
def test_delimited_ingest_matches_the_per_row_parser(tmp_path_factory, case):
    raw, mode = case
    path = str(tmp_path_factory.mktemp("records") / "records.csv")
    with open(path, "wb") as fh:
        fh.write(raw)
    expected = _outcome(reference_ingest, path, mode)
    assert _outcome(ingest, path, mode) == expected
    with _split() as (_, counts), pytest.MonkeyPatch.context() as patch:
        patch.setattr(_ranges, "_BLOCK", 16)
        assert _outcome(ingest, path, mode) == expected
    if isinstance(expected, ConfusionCounts):
        assert counts == [True]  # the ranges counted it: no serial rerun


@pytest.mark.parametrize(
    "text",
    [
        "z,score\n1,0.5\n0,0.125\n1,-3e-2\n0,1\n",
        "score,z\r\n0.5,1\r\n0.125,0\r\n-3e-2,1\r\n1,0",
        "z,a\n1,1\n1,0\n0,1\n0,0",
        "a\tz\n1\t1\n0\t1\n1\t0\n0\t0\n",
        "z, a\n1, 1\n 1 , 0\n0 ,1\n0, 0 \n",  # a space beside a label stays inline
        "z,a\n1,  0\n0,\t1\n  1,1\n0 \t,0\n",  # and so does other padding
        "score\tz\n0.5\t1\v\n0.125\t \f0\n-3e-2\t1 \t\n1\t\x1c0\n",
        "z\tscore\n\t1\t0.5\n0\x85 \t0.125\n\u20281\t-3e-2\n \v0\t1\n",
    ],
)
def test_canonical_rows_never_reach_the_per_row_parser(tmp_path, monkeypatch, text):
    calls = []
    for name in ("_parse_score", "_parse_binary"):
        helper = getattr(_ingest, name)
        monkeypatch.setattr(
            _ingest, name, lambda *args, _helper=helper: calls.append(args) or _helper(*args)
        )
    counts = ingest(_write(tmp_path, "canonical.csv", text), threshold=0.25)
    assert counts.n == 4
    assert calls == []


_CANONICAL = {
    "comma": ("z,score\n", "{z},{s}\n"),
    "tab, score first": ("score\tz\n", "{s}\t{z}\n"),
    "CRLF": ("z,score\r\n", "{z},{s}\r\n"),
    "lone CR": ("score,z\r", "{s},{z}\r"),
}


@pytest.mark.parametrize("header, row", _CANONICAL.values(), ids=list(_CANONICAL))
def test_canonical_split_files_are_counted_a_block_at_a_time(tmp_path, monkeypatch, header, row):
    # Three ranges of about 40 kB, each read in several blocks. A block handed
    # to the per-line loop is recorded here and fails its range, so one in a
    # worker brings a serial count.
    rng = random.Random(7)
    lines = [row.format(z=rng.randint(0, 1), s=f"{rng.uniform(-2, 2):.4f}") for _ in range(12_000)]
    lines[::1000] = [line[:-1] + "\n" for line in lines[::1000]]  # ranges end at a \n
    path = _write(tmp_path, "canonical.csv", header + "".join(lines))
    _assert_counted_a_block_at_a_time(monkeypatch, path, 0.25)


def _assert_counted_a_block_at_a_time(monkeypatch, path, threshold):
    """Split path over three CPUs and check that it counts as the serial
    count does, with every block of every range counted at once."""
    expected = ConfusionCounts(*_ingest._count_file(path, "auto", threshold, split=False))
    handed = []

    def loop_lines(block):
        if isinstance(block, str):
            handed.append(block)
            raise DataError("a block reached the per-line loop")
        return block

    monkeypatch.setattr(_ingest, "_lines", loop_lines)
    with _split() as (forks, counts):
        assert ingest(path, threshold=threshold) == expected
    assert len(forks) == 2
    assert counts == [True]
    assert handed == []


# Scores that equal the threshold, written in several ways, beside scores
# just either side of it; at threshold 0, both signed zeros equal it.
_TIES = {
    0.25: ["0.25", "0.250", "2.5e-1", ".25", "0.2499", "0.2501", "-1", "1.5"],
    0.0: ["0.0", "-0.0", "0", "-0", "0e9", "-1e-9", "1e-9", "0.75"],
}


@pytest.mark.parametrize("threshold", list(_TIES))
@pytest.mark.parametrize("delimiter", [",", "\t"], ids=["comma", "tab"])
@pytest.mark.parametrize("z_first", [True, False], ids=["z first", "score first"])
def test_a_block_counts_a_score_equal_to_the_threshold_as_negative(
    tmp_path, monkeypatch, threshold, delimiter, z_first
):
    rng = random.Random(11)
    rows = [(str(rng.randint(0, 1)), rng.choice(_TIES[threshold])) for _ in range(12_000)]
    lines = [delimiter.join(row[:: 1 if z_first else -1]) + "\n" for row in [("z", "score"), *rows]]
    path = _write(tmp_path, "ties.csv", "".join(lines))
    positives = sum(float(score) > threshold for _, score in rows)
    assert sum(float(score) == threshold for _, score in rows) > 2000
    counts = ConfusionCounts(*_ingest._count_file(path, "auto", threshold, split=False))
    assert counts.tp + counts.fp == positives
    _assert_counted_a_block_at_a_time(monkeypatch, path, threshold)


# Ways a row can miss the block's layout, each a function of its label,
# score and delimiter: padding, a second or a missing delimiter, a blank
# line, a label that is not a bare 0 or 1, and scores that are not finite.
_NEAR_MISSES = [
    lambda z, s, d: (" " + z, s),
    lambda z, s, d: (z + " ", s),
    lambda z, s, d: (z, s + " "),
    lambda z, s, d: (z, s + d + "1"),
    lambda z, s, d: (z + d + "0", s),
    lambda z, s, d: (z + s,),
    lambda z, s, d: ("",),
    lambda z, s, d: ("2", s),
    lambda z, s, d: ("1.0", s),
    lambda z, s, d: (z, "nan"),
    lambda z, s, d: (z, "-inf"),
    lambda z, s, d: (z, "1e400"),
    lambda z, s, d: (z, "x"),
    lambda z, s, d: (z, ""),
]


@st.composite
def _score_blocks(draw):
    """A text block of score rows as a split range hands one to the count,
    its delimiter, whether z comes first, and a threshold: rows of a bare
    0 or 1 label and a finite score, in half the blocks one or two of them
    near misses."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    z_first = draw(st.booleans())
    scores = st.one_of(st.sampled_from(["0.5", "-0.0", ".5", "5e-1"]), st.floats(-2, 2).map(repr))
    labels = st.sampled_from(["0", "1"])
    rows = [(draw(labels), draw(scores)) for _ in range(draw(st.integers(1, 12)))]
    clean = list(rows)  # a second near miss of the same row replaces the first
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = draw(st.sampled_from(_NEAR_MISSES))(*clean[at], delimiter)
    block = "".join(delimiter.join(row[:: 1 if z_first else -1]) + "\n" for row in rows)
    if draw(st.integers(0, 9)) == 0:
        block = block[:-1]  # a last line without \n
    return block, delimiter, z_first, draw(st.sampled_from([0.0, 0.5, -1.0]))


@settings(deadline=None, max_examples=150)
@given(_score_blocks())
# A row of one field beside a row of three keeps two fields a line, and
# every line holds a label; the line-start patterns find two rows in three
# lines, so the field count rejects these.
@example(("1,2\n0\n1,1,4\n", ",", True, 0.5))
@example(("2,1\n0\n4,1,1\n", ",", False, 0.5))
# Scores equal to the threshold are predicted negative.
@example(("1\t0.5\n0\t0.5\n1\t0.6\n", "\t", True, 0.5))
def test_a_block_is_counted_as_the_per_line_loop_counts_it_or_left_alone(case):
    block, delimiter, z_first, threshold = case
    before = [5, 6, 7, 8]
    cells = list(before)
    if _ingest._count_block(block, delimiter, z_first, threshold, cells):
        header = ("z", "score")[:: 1 if z_first else -1]
        lines = [_ingest._lines(block)]  # handed over as a list, so not tried as a block
        loop = list(before)
        _ingest._count_delimited((1, delimiter.join(header)), lines, "score", threshold, "f", loop)
        assert cells == loop
    else:
        assert cells == before


def test_ingest_memory_does_not_grow_with_rows(tmp_path):
    # 200k rows with six-decimal scores are almost all distinct lines, so
    # neither per-row nor per-distinct-line storage fits under 1 MiB. On two
    # CPUs the file (2.2 MB) is split in two, and this process reads one half,
    # which would not fit either.
    rng = random.Random(3)
    path = tmp_path / "scores.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("z,score\n")
        for _ in range(200):
            fh.writelines(f"{rng.randint(0, 1)},{rng.random():.6f}\n" for _ in range(1000))
    for cpus in (1, 2):
        with _split(cpus, min_range=_ingest._MIN_RANGE) as (forks, counts):
            tracemalloc.start()
            try:
                result = ingest(str(path))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert result.n == 200_000
        assert peak < 2**20
        assert len(forks) == cpus - 1
        assert counts == [True]


@pytest.mark.parametrize("middle, n_forks", [(b"\r", 0), (b"\n", 1)])
def test_rows_ended_by_a_lone_cr_keep_memory_flat(tmp_path, middle, n_forks):
    # After a \n-ended header, rows end in a lone \r. With no other \n
    # the file is one range, counted in one process; with a \n just past
    # its middle it is two ranges of about 1.1 MB, each read in blocks cut
    # after a \r.
    rows = b"1,0.5\r0,0.25\r"
    path = tmp_path / "records.csv"
    path.write_bytes(b"z,score\n" + rows * 90_000 + middle + rows * 80_000)
    with _split(2, min_range=_ingest._MIN_RANGE) as (forks, counts):
        tracemalloc.start()
        try:
            result = ingest(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result == ConfusionCounts(tp=0, fn=170_000, fp=0, tn=170_000)
    assert peak < 2**20
    assert len(forks) == n_forks
    assert counts == [True]


_LONG = 8 << 20  # characters in the one long line of the tests below


def test_a_rejected_long_line_peaks_at_four_times_its_size_in_one_process(tmp_path):
    path = _write(tmp_path, "long.csv", "z,score\n1," + "x" * _LONG + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=f"must be a number, got 'x+'... \\({_LONG} "):
            _ingest._count_file(path, "auto", 0.5, split=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * _LONG  # 4.0 measured


# A long row in the first range, which this process counts: a padded label
# goes through the per-line loop, and a score row is counted a block at once.
_LONG_ROWS = {  # the long row, with its padding, and the row repeated after it
    "padded z,a": ("z,a\n1,{}1\n", " ", "0,1\n"),
    "z,score": ("z,score\n1,{}1\n", "0", "0,1\n"),
    "score,z": ("score,z\n{}1,1\n", "0", "1,0\n"),
}


@pytest.mark.parametrize("long_row, pad, row", _LONG_ROWS.values(), ids=list(_LONG_ROWS))
def test_a_counted_long_line_peaks_at_three_times_its_size_in_a_split_range(
    tmp_path, long_row, pad, row
):
    # 1.2 MB of rows after the long one make a second range.
    path = _write(tmp_path, "long.csv", long_row.format(pad * _LONG) + row * 300_000)
    with _split(2, min_range=_ingest._MIN_RANGE) as (forks, counts):
        tracemalloc.start()
        try:
            result = ingest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result == ConfusionCounts(tp=1, fn=0, fp=300_000, tn=0)
    assert len(forks) == 1
    assert counts == [True]
    assert peak < 3.5 * _LONG  # 3.0 measured


def test_a_file_that_is_one_range_is_counted_serially_below_three_times_its_line(tmp_path):
    # One long row after the header: every cut past byte 0 falls at the end
    # of the file, so it would be one range, and the serial count reads it
    # with a lower peak than a range's three times the line.
    path = _write(tmp_path, "long.csv", "z,score\n1," + "0" * _LONG + "1\n")
    with _split(2, min_range=_ingest._MIN_RANGE) as (forks, counts):
        tracemalloc.start()
        try:
            result = ingest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert result == ConfusionCounts(tp=1, fn=0, fp=0, tn=0)
    assert forks == []
    assert counts == [True]
    assert peak < 2.5 * _LONG  # 2.0 measured; a range of it, 3.0


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no BOM", "BOM"])
def test_a_header_ended_by_a_lone_cr_is_split(tmp_path, bom):
    # 2.3 MB of rows after a header ended by a lone \r, with a \n just past
    # the middle: two ranges on two CPUs.
    rows = b"1,0.5\r0,0.25\r1,0.75\r"
    path = tmp_path / "records.csv"
    path.write_bytes(bom + b"z,score\r" + rows * 60_000 + b"\n" + rows * 50_000)
    serial = _ingest._count_file(str(path), "auto", 0.5, split=False)
    with _split(2, min_range=_ingest._MIN_RANGE) as (forks, counts):
        result = ingest(str(path))
    assert result == ConfusionCounts(*serial) == ConfusionCounts(110_000, 110_000, 0, 110_000)
    assert len(forks) == 1
    assert counts == [True]


_SWITCH = '{"z": 1, "a": 1}\n' * 6 + '{"z": 0, "score": 0.4}\n'


@pytest.mark.parametrize(
    "raw, outcome",
    [
        (b"z,a\n1,1\n0,0\n1,0\n0,1\n1,1\n1,1\n", "ConfusionCounts(tp=3, fn=1, fp=1, tn=1)"),
        (
            b"z,a\n1,1\n0,0\n1,0\n0,1\n1,1\n1,7\n",
            "DataError: {}:7: column 'a' must be exactly 0 or 1, got '7'",
        ),
        # The text read of the header decodes the first 8 KiB.
        (
            b"z,a\n" + b"1,1\n" * 3000 + b"\xff,1\n",
            "DataError: {}: file is not UTF-8 text (invalid start byte)",
        ),
        (
            b"z,a\n1,7\n" + b"1,1\n" * 3000 + b"\xff,1\n",
            "DataError: {}:2: column 'a' must be exactly 0 or 1, got '7'",
        ),
        (_SWITCH.encode(), "DataError: {}:7: record switches to 'score' mode mid-file"),
    ],
    ids=["counts", "bad row", "non-UTF-8", "bad row then non-UTF-8", "JSON lines mode switch"],
)
def test_split_gives_the_serial_outcome_and_reaps_every_worker(tmp_path, raw, outcome):
    path = tmp_path / "records.txt"
    path.write_bytes(raw)
    with _split() as (forks, counts):
        result = _outcome(ingest, str(path), "auto")
    assert str(result) == outcome.format(path)
    assert len(forks) == 2
    # Only an error is worth a second count, in one process.
    assert counts == ([True] if isinstance(result, ConfusionCounts) else [True, False])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("z,a\n1,1\n0,0\n1,0\n0,1\n1,1\n", "ConfusionCounts(tp=2, fn=1, fp=1, tn=1)"),
        (
            "z,a\n1,1\n0,0\n1,0\n0,1\n1,7\n",
            "DataError: {}:6: column 'a' must be exactly 0 or 1, got '7'",
        ),
    ],
    ids=["counts", "bad row"],
)
def test_split_with_sigchld_ignored_takes_each_workers_reply(tmp_path, text, outcome):
    # The kernel reaps the workers itself; their replies alone say whether
    # each range was counted, so only a bad row brings a second count.
    import signal

    path = _write(tmp_path, "records.csv", text)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with _split() as (forks, counts):
            result = _outcome(ingest, path, "auto")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert str(result) == outcome.format(path)
    assert len(forks) == 2
    assert counts == ([True] if isinstance(result, ConfusionCounts) else [True, False])


def test_no_split_while_another_thread_runs(tmp_path):
    # fork would copy only the calling thread into the worker.
    path = _write(tmp_path, "records.csv", "z,a\n1,1\n0,0\n1,0\n0,1\n1,1\n")
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        with _split() as (forks, _):
            assert ingest(path) == ConfusionCounts(2, 1, 1, 1)
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert forks == []


_COUNT_WITHOUT_FORK = """
import os, sys
from tverskyci import ingest
sys.modules["tverskyci.ingest"]._MIN_RANGE = 1
os.sched_getaffinity = lambda pid: {0, 1, 2}
def fork():
    raise SystemExit("forked")
os.fork = fork
print(ingest(sys.argv[1]))
"""


def test_stdin_and_named_pipes_are_counted_in_one_process(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, "-c", _COUNT_WITHOUT_FORK]
    records = tmp_path / "records.csv"
    records.write_bytes(b"z,a\n" + b"1,1\n0,0\n1,0\n" * 100)
    expected = "ConfusionCounts(tp=100, fn=100, fp=0, tn=100)\n"
    piped = subprocess.run(
        [*command, "/dev/stdin"],
        input=records.read_bytes(),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert (piped.returncode, piped.stderr, piped.stdout) == (0, b"", expected.encode())
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(records), str(fifo)])
    try:
        named = subprocess.run([*command, str(fifo)], capture_output=True, env=env, timeout=60)
    finally:
        writer.kill()
        writer.wait(timeout=60)
    assert (named.returncode, named.stderr, named.stdout) == (0, b"", expected.encode())
