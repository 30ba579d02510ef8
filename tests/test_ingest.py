import importlib
import json
import random
import tracemalloc

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

from tests._reference import reference_ingest


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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
def test_delimited_ingest_matches_the_per_row_parser(tmp_path_factory, case):
    raw, mode = case
    path = str(tmp_path_factory.mktemp("records") / "records.csv")
    with open(path, "wb") as fh:
        fh.write(raw)
    assert _outcome(ingest, path, mode) == _outcome(reference_ingest, path, mode)


@pytest.mark.parametrize(
    "text",
    [
        "z,score\n1,0.5\n0,0.125\n1,-3e-2\n0,1\n",
        "score,z\r\n0.5,1\r\n0.125,0\r\n-3e-2,1\r\n1,0",
        "z,a\n1,1\n1,0\n0,1\n0,0",
        "a\tz\n1\t1\n0\t1\n1\t0\n0\t0\n",
        "z, a\n1, 1\n 1 , 0\n0 ,1\n0, 0 \n",  # a space beside a label stays inline
    ],
)
def test_canonical_rows_never_reach_the_per_row_parser(tmp_path, monkeypatch, text):
    ingest_module = importlib.import_module("tverskyci.ingest")  # the package exports the function
    calls = []
    for name in ("_parse_score", "_parse_binary"):
        helper = getattr(ingest_module, name)
        monkeypatch.setattr(
            ingest_module, name, lambda *args, _helper=helper: calls.append(args) or _helper(*args)
        )
    counts = ingest(_write(tmp_path, "canonical.csv", text), threshold=0.25)
    assert counts.n == 4
    assert calls == []


def test_ingest_memory_does_not_grow_with_rows(tmp_path):
    # 200k rows with six-decimal scores are almost all distinct lines, so
    # neither per-row nor per-distinct-line storage fits under 1 MiB.
    rng = random.Random(3)
    path = tmp_path / "scores.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("z,score\n")
        for _ in range(200):
            fh.writelines(f"{rng.randint(0, 1)},{rng.random():.6f}\n" for _ in range(1000))
    tracemalloc.start()
    try:
        counts = ingest(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.n == 200_000
    assert peak < 2**20
