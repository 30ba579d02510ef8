import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tverskyci import (
    DegenerateSampleError,
    EstimateReport,
    HistogramSummary,
    PlanResult,
    ScoreModel,
    SimulationConfig,
    SimulationReport,
    TverskyParams,
    replication_estimates,
)
from tverskyci.cli import main
from tverskyci.schemas import CI_SCHEMA, PLAN_SCHEMA, SCHEMAS_BY_COMMAND, SIMULATE_SCHEMA

from tests._reference import ORACLE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMAS_BY_COMMAND[payload["command"]])
    return payload, err


# ---------------------------------------------------------------------------
# subcommand outputs
# ---------------------------------------------------------------------------


def test_estimate_text(capsys):
    code, out, err = run_cli(capsys, "estimate", "--counts", "30,20,10,40", "--beta", "1")
    assert code == 0
    assert "estimate: 0.666667" in out
    assert "precision: 0.750000" in out
    assert "recall: 0.600000" in out


def test_estimate_json_from_summary_flags_missing_metrics(capsys):
    payload, err = run_json(
        capsys, "estimate", "--summary", "535,0.535,0.861,0.900", "--beta", "0.5"
    )
    assert payload["estimate"] == 0.861
    assert payload["precision"] is None
    assert payload["recall"] is None
    assert "warning:" in err


@pytest.mark.parametrize(
    "summary, code, message",
    [
        (
            "10,0.1,0.5,0.6",
            4,
            "inconsistent summary statistics: (1/tversky_sq - 1)/(1/tversky - 1) = 0.666667 "
            "lies outside the weight range [0.5, 0.5]",
        ),
        (
            "10,0,0.5,0.6",
            3,
            "tp_rate is zero; the variance formula divides by the true-positive rate",
        ),
    ],
    ids=["inconsistent", "no true positives"],
)
def test_estimate_checks_a_summary_as_ci_does(capsys, summary, code, message):
    for command in ("ci", "estimate"):
        result = run_cli(capsys, command, "--summary", summary)
        assert result == (code, "", f"tverskyci: error: {message}\n")


def test_ci_json_retail_example(capsys):
    payload, _ = run_json(
        capsys, "ci", "--summary", "535,0.535,0.861,0.900", "--beta", "0.5", "--level", "0.95"
    )
    assert payload["estimate"] == 0.861
    assert 0.0160 <= payload["se"] <= 0.0164
    assert 0.0315 <= payload["half_width"] <= 0.0322
    assert payload["ci_lower"] == pytest.approx(0.829, abs=5e-4)
    assert payload["ci_upper"] == pytest.approx(0.893, abs=5e-4)


def test_ci_defaults_to_f1_weights(capsys):
    payload, _ = run_json(capsys, "ci", "--counts", "40,10,10,40")
    assert payload["params"] == {"fp_weight": 0.5, "fn_weight": 0.5}
    assert payload["estimate"] == pytest.approx(0.8, rel=1e-12)


def test_ci_boundary_warning_on_stderr_keeps_stdout_parseable(capsys):
    payload, err = run_json(capsys, "ci", "--counts", "50,0,0,50", "--beta", "0.5")
    assert payload["ci_lower"] == payload["ci_upper"] == 1.0
    assert "warning:" in err


def test_ci_with_errors_is_not_at_the_boundary_when_the_index_rounds_to_1(capsys):
    # tversky rounds to 1.0, but the exact variance is about 5.7e-63, not 0
    payload, err = run_json(
        capsys, "ci", "--counts", "47,0,607719886100,29",
        "--ab", "5.13008324775293e-47,1.133866580166877e+53",
    )
    assert err == ""
    assert payload["variance"] == pytest.approx(5.69e-63, rel=1e-2)


def test_plan_json_golden(capsys):
    payload, _ = run_json(
        capsys, "plan", "--delta", "0.01", "--beta", "0.5", "--ez", "0.615"
    )
    assert payload["bound"] == 0.205
    assert payload["required_events"] == 10250
    assert payload["required_total"] == 16667


def test_plan_without_prevalence(capsys):
    payload, _ = run_json(capsys, "plan", "--delta", "0.01", "--beta", "0.5")
    assert payload["required_events"] == 10250
    assert payload["required_total"] is None


def test_bound_table_values(capsys):
    payload, _ = run_json(capsys, "bound-table")
    assert payload["rows"] == [
        {"max_weight": 0.5, "bound": 0.1549},
        {"max_weight": 0.6, "bound": 0.1695},
        {"max_weight": 0.7, "bound": 0.1861},
        {"max_weight": 0.8, "bound": 0.2050},
        {"max_weight": 0.9, "bound": 0.2262},
    ]
    code, out, _ = run_cli(capsys, "bound-table")
    assert code == 0
    assert "0.2050" in out


def test_simulate_json_small(capsys):
    payload, _ = run_json(
        capsys,
        "simulate",
        "--n", "200",
        "--replications", "50",
        "--seed", "5",
        "--beta", "0.5",
        "--bins", "8",
    )
    report = payload["report"]
    assert 0.0 <= report["coverage"] <= 1.0
    assert report["true_value"] == pytest.approx(0.8693168, abs=5e-7)
    assert sum(payload["histogram"]["counts"]) == 50 - report["degenerate_count"]


def test_simulate_single_replication_omits_histogram(capsys):
    payload, err = run_json(
        capsys, "simulate", "--n", "50", "--replications", "1", "--seed", "1", "--beta", "1"
    )
    assert payload["histogram"] is None
    assert payload["report"]["coverage"] in (0.0, 1.0)
    assert "histogram diagnostics omitted" in err


def test_bootstrap_check_json(capsys):
    payload, _ = run_json(
        capsys,
        "bootstrap-check",
        "--counts", "300,60,40,600",
        "--beta", "0.5",
        "--resamples", "20000",
        "--seed", "1",
    )
    assert abs(payload["relative_gap"]) < 0.10
    assert payload["bootstrap_se"] == pytest.approx(payload["analytic_se"], rel=0.10)


# ---------------------------------------------------------------------------
# determinism and round trips
# ---------------------------------------------------------------------------


def test_json_output_is_byte_stable(capsys):
    args = ("simulate", "--n", "100", "--replications", "40", "--seed", "9", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_file_and_inline_counts_agree_exactly(capsys, tmp_path):
    rows = [(1, 1)] * 30 + [(1, 0)] * 20 + [(0, 1)] * 10 + [(0, 0)] * 40
    path = tmp_path / "records.csv"
    path.write_text("z,a\n" + "\n".join(f"{z},{a}" for z, a in rows) + "\n", encoding="utf-8")
    _, out_file, _ = run_cli(capsys, "ci", "--input", str(path), "--beta", "1", "--format", "json")
    _, out_inline, _ = run_cli(capsys, "ci", "--counts", "30,20,10,40", "--beta", "1",
                               "--format", "json")
    assert out_file == out_inline


def test_score_mode_threshold_flag(capsys, tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("z,score\n1,0.9\n1,0.2\n0,0.7\n0,0.1\n", encoding="utf-8")
    payload, _ = run_json(
        capsys, "estimate", "--input", str(path), "--threshold", "0.5", "--beta", "1"
    )
    assert payload["n"] == 4
    assert payload["estimate"] == pytest.approx(0.5, rel=1e-12)


def test_explicit_mode_flag(capsys, tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("z,score\n1,0.9\n0,0.1\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "estimate", "--input", str(path), "--mode", "score")
    assert code == 0
    code, _, err = run_cli(capsys, "estimate", "--input", str(path), "--mode", "prediction")
    assert code == 2
    assert "score mode" in err


def test_simulate_with_explicit_weights(capsys):
    payload, _ = run_json(
        capsys, "simulate", "--n", "100", "--replications", "30", "--seed", "2",
        "--ab", "0.3,1.5",
    )
    assert payload["config"]["params"] == {"fp_weight": 0.3, "fn_weight": 1.5}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_error_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "estimate", "--counts", "1,2,3")
    assert code == 1
    assert "error" in err


def test_a_huge_malformed_count_is_quoted_in_one_short_line(capsys):
    value = "1,2,3," + "x" * 100_000
    code, out, err = run_cli(capsys, "ci", "--counts", value)
    assert (code, out) == (1, "")
    [line] = [line for line in err.splitlines() if "error:" in line]
    assert line.endswith(f"got {value[:64]!r}... ({len(value)} characters)")
    assert len(err.encode()) < 1024


def test_conflicting_inputs_is_exit_1(capsys):
    code, _, _ = run_cli(
        capsys, "ci", "--counts", "1,1,1,1", "--summary", "4,0.25,0.5,0.5"
    )
    assert code == 1


def test_missing_input_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "estimate", "--beta", "1")
    assert code == 1
    assert "--input or --counts" in err


@pytest.mark.parametrize(
    "command, flags",
    [
        ("ci", "--summary, --input or --counts"),
        ("estimate", "--summary, --input or --counts"),
        ("bootstrap-check", "--input or --counts"),
    ],
)
def test_missing_input_names_the_flags_the_subcommand_offers(capsys, command, flags):
    assert run_cli(capsys, command) == (1, "", f"tverskyci: error: provide {flags}\n")


def test_data_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "estimate", "--input", "/missing/file.csv")
    assert code == 2
    assert "file not found" in err


def test_parse_error_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("z,a\n1,2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "estimate", "--input", str(path))
    assert code == 2
    assert "bad.csv:2" in err


def test_a_json_line_that_is_not_an_object_is_exit_2(capsys, tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('{"z": 1, "a": 1}\n[1, 2]\n', encoding="utf-8")
    message = f"{path}:2: expected a JSON object, got list"
    assert run_cli(capsys, "ci", "--input", str(path)) == (2, "", f"tverskyci: error: {message}\n")


def test_an_input_that_is_a_directory_is_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "ci", "--input", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"tverskyci: error: {tmp_path}: cannot read file: ")


def test_a_bootstrap_with_mostly_degenerate_resamples_is_exit_3(capsys):
    # P(tp = 0) is 0.999 ** 1000, about 0.37, per resample; this seed draws 59.
    result = run_cli(
        capsys, "bootstrap-check", "--counts", "1,0,0,999", "--resamples", "100", "--seed", "1100"
    )
    message = "59 of 100 resamples were degenerate (no true positives)"
    assert result == (3, "", f"tverskyci: error: {message}\n")


def test_degenerate_sample_is_exit_3(capsys):
    code, _, err = run_cli(capsys, "ci", "--counts", "0,5,5,90")
    assert code == 3
    assert "true positives" in err


def test_a_model_with_no_true_positives_fails_before_any_draw(capsys):
    # Every replication of this model is degenerate, but the model's own
    # error is the one reported.
    message = "model gives zero true-positive probability"
    code, out, err = run_cli(capsys, "simulate", "--mu", "-40", "--threshold", "0")
    assert (code, out, err) == (3, "", f"tverskyci: error: {message}\n")
    config = SimulationConfig(
        model=ScoreModel(0.5, -40.0, 0.0), n=1000, replications=50, params=TverskyParams(1, 1)
    )
    with pytest.raises(DegenerateSampleError, match=f"^{message}$"):
        replication_estimates(config)


def test_domain_error_is_exit_4(capsys):
    code, _, _ = run_cli(capsys, "ci", "--counts", "30,20,10,40", "--level", "1.5")
    assert code == 4
    code, _, _ = run_cli(capsys, "ci", "--counts", "30,20,10,40", "--ab=-1,0.5")
    assert code == 4
    code, _, _ = run_cli(capsys, "plan", "--delta", "-0.01")
    assert code == 4


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0


def test_simulate_draws_once(capsys, monkeypatch):
    from tverskyci import simulation

    calls = []
    draw = simulation._draw

    def counting_draw(config):
        calls.append(config)
        return draw(config)

    monkeypatch.setattr(simulation, "_draw", counting_draw)
    code, _, err = run_cli(capsys, "simulate", "--n", "50", "--replications", "40")
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "9223372036854775808"),
        ("simulate", "--replications", "100000000000000000000"),
        ("bootstrap-check", "--counts", "100000000000000000000,1,1,1"),
        ("bootstrap-check", "--counts", "3,1,1,1", "--resamples", "100000000000000000000"),
        ("ci", "--summary", "100,0.3,0.5,0.9090909", "--ab", "0.8,0.2"),
        ("ci", "--summary", "100,0.99,0.5,0.6", "--ab", "0.5,1"),
        ("ci", "--counts", "1,1,1,1", "--ab", "1e200,1e200"),
        ("ci", "--counts", "1,1,1,1", "--ab", "1e160,1e-160"),
        ("simulate", "--ab", "1e200,1"),
        ("bootstrap-check", "--counts", "5,100,100,0", "--ab", "1e300,1e223"),
        ("plan", "--delta", "1e-300"),
        ("plan", "--delta", "3e-156"),
        ("plan", "--ab", "1e300,1", "--delta", "0.01"),
        ("ci", "--summary", "278,0.2398975789534,5e-324,0.0077846957090", "--level", "6e-05"),
        ("ci", "--summary", "655,0.7184292532130084,0.81213,5e-324", "--ab", "4.0,27612534.17"),
        ("ci", "--counts", "1,1000000000,0,0", "--ab", "1,1e149"),
        ("simulate", "--ab", "1e154,1", "--n", "50", "--replications", "20"),
        ("ci", "--counts", f"1,{10**400},0,0"),
        ("estimate", "--counts", f"1,{10**400},0,0"),
        ("ci", "--counts", f"1,0,0,{10**400}"),
        ("ci", "--counts", f"1,0,0,{10**310}"),
        ("ci", "--summary", f"{10**400},0.5,0.8,0.8", "--ab", "1,1"),
    ],
)
def test_out_of_range_inputs_are_exit_4(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("tverskyci: error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, inputs",
    [
        (("--delta", "1e-300"), "delta=1e-300, fn_weight=0.5"),
        (("--delta", "1e-300", "--ez", "0.5"), "delta=1e-300, fn_weight=0.5, prevalence=0.5"),
        (("--delta", "0.01", "--ab", "1,1e-310"), "delta=0.01, fn_weight=1e-310"),
    ],
    ids=["events", "total", "small fn_weight"],
)
def test_plan_past_the_float_range_names_its_inputs(capsys, argv, inputs):
    # The divisor delta**2 * fn_weight underflows to 0 or a subnormal, so the
    # message names the inputs instead.
    result = run_cli(capsys, "plan", *argv)
    assert result == (4, "", f"tverskyci: error: the plan for {inputs} exceeds the float range\n")


def test_non_utf8_input_is_exit_2(capsys, tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"z,a\n1,1\n\xff\xfe\n")
    code, _, err = run_cli(capsys, "ci", "--input", str(path))
    assert code == 2
    assert str(path) in err


def test_plan_whose_quotient_underflows_is_one_record(capsys):
    # delta^2 overflows, so the quotient is 0; the schema requires >= 1.
    payload, _ = run_json(capsys, "plan", "--delta", "1e200", "--ez", "0.5")
    assert payload["required_events"] == payload["required_total"] == 1


def test_plan_with_weights_below_epsilon_uses_the_minus_root(capsys):
    # 1 - 1e-17 rounds to 1, which once selected the plus root and a bound of 0.
    payload, _ = run_json(capsys, "plan", "--delta", "0.5", "--ab", "1e-17,1e-17")
    assert payload["bound"] == 0.1055


def test_simulate_with_underflowing_moments_omits_them(capsys):
    payload, _ = run_json(
        capsys, "simulate", "--mu=0.5", "--n", "23", "--replications", "26", "--ab=0.5,2.4e99"
    )
    assert payload["histogram"]["skewness"] is None
    assert payload["histogram"]["excess_kurtosis"] is None


def _fields(cls, *omit):
    # The estimation and planning records are named tuples; the simulation
    # records are dataclasses.
    if hasattr(cls, "_fields"):
        return set(cls._fields) - set(omit)
    return {field.name for field in dataclasses.fields(cls)} - set(omit)


def test_dataclass_payloads_have_exactly_the_schema_fields():
    # ci, plan and simulate print library records as they are; a field
    # added to one of them must be added to its schema too.
    def properties(schema):
        return set(schema["properties"])

    simulate = SIMULATE_SCHEMA["properties"]
    assert _fields(TverskyParams) == properties(CI_SCHEMA["properties"]["params"])
    assert _fields(EstimateReport, "at_boundary") | {"command", "params"} == properties(CI_SCHEMA)
    assert _fields(PlanResult) | {"command", "bound"} == properties(PLAN_SCHEMA)
    assert not _fields(ScoreModel) & _fields(SimulationConfig)
    config = _fields(ScoreModel) | _fields(SimulationConfig, "model")
    assert config == properties(simulate["config"])
    assert _fields(SimulationReport, "estimates") == properties(simulate["report"])
    assert _fields(HistogramSummary) == properties(simulate["histogram"]["anyOf"][1])


def _run_process(*argv, stdin=None):
    """Run the CLI as its own process on the checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "tverskyci.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("ci", "--counts", "1,1000000000,0,0", "--ab", "1,1e149"),
        ("simulate", "--ab", "1e154,1", "--n", "50", "--replications", "20"),
    ],
)
def test_overflowing_inputs_print_one_error_line_as_a_process(argv):
    # pytest captures floating-point warnings in-process; a user's terminal
    # does not, so run the CLI as its own process.
    result = _run_process(*argv)
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr.startswith("tverskyci: error: ")
    assert result.stderr.count("\n") == 1


def test_ci_with_an_index_whose_fourth_power_underflows(capsys):
    # t = 1e-100, so t^4 is below the smallest double; the variance is
    # (1e200 + 1e200) * 1e-400 / 0.5 = 4e-200, not 0.
    payload, err = run_json(capsys, "ci", "--counts", "1,0,1,0", "--ab", "1e100,1")
    assert payload["variance"] == pytest.approx(4e-200, rel=1e-9, abs=0.0)
    assert payload["se"] > 0.0
    assert err == ""


def test_bad_row_read_from_a_pipe_is_reported_once_with_its_line():
    # A pipe can be read only once, so the row must be checked where it is read.
    rows = "z,score\n1,0.9\n0,0.2\n1,abc\n0,0.4\n"
    result = _run_process("ci", "--input", "/dev/stdin", stdin=rows)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "tverskyci: error: /dev/stdin:4: column 'score' must be a number, got 'abc'\n"
    )


def _summary_arg(counts, fp_w, fn_w):
    """The --summary value N,TP_RATE,TVERSKY,TVERSKY_SQ implied by counts,
    computed as the benchmark's input generator computes it."""
    tp, fn, fp, tn = counts
    n = tp + fn + fp + tn
    tversky = tp / (tp + fp_w * fp + fn_w * fn)
    tversky_sq = tp / (tp + fp_w * fp_w * fp + fn_w * fn_w * fn)
    return f"{n},{tp / n!r},{tversky!r},{tversky_sq!r}"


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


_CELL = st.integers(0, 10**9)


@settings(deadline=None, max_examples=150)
@given(
    counts=st.tuples(st.integers(1, 10**9), _CELL, _CELL, _CELL),
    weights=st.tuples(*[st.floats(1e-3, 1e3)] * 2),
    level=st.floats(0.5, 0.999),
)
def test_ci_of_a_summary_or_as_text_agrees_with_ci_of_counts_as_json(counts, weights, level):
    common = ("ci", "--ab", ",".join(map(repr, weights)), "--level", repr(level))
    by_counts = ("--counts", ",".join(map(str, counts)))
    payload = json.loads(_stdout(*common, *by_counts, "--format", "json"))
    # The summary path gives the same interval within tolerance.
    summary = json.loads(
        _stdout(*common, "--summary", _summary_arg(counts, *weights), "--format", "json")
    )
    assert summary["n"] == payload["n"] and summary["params"] == payload["params"]
    for key in ("estimate", "variance", "se", "half_width", "ci_lower", "ci_upper", "level"):
        assert summary[key] == pytest.approx(payload[key], rel=1e-6, abs=1e-12), key
    # The text report is the JSON rounded to the digits it prints.
    text = dict(line.split(": ", 1) for line in _stdout(*common, *by_counts).splitlines())
    params = payload["params"]
    assert text.pop("n") == str(payload["n"])
    assert text.pop("weights") == f"fp={params['fp_weight']:g} fn={params['fn_weight']:g}"
    assert text.pop("level") == f"{payload['level']:g}"
    lower, upper = text.pop("ci").strip("[]").split(", ")
    text.update(ci_lower=lower, ci_upper=upper)
    assert {key: float(value) for key, value in text.items()} == {
        key: round(payload[key], 6) for key in text
    }


# The oracle recomputes every printed field from the paper's formulas with
# no tverskyci code, and reports fields off by more than its ORACLE.RTOL.
_WEIGHT = st.floats(1e-3, 1e3)
_WEIGHT_FLAGS = st.one_of(
    st.tuples(_WEIGHT, _WEIGHT).map(lambda ab: {"ab": ",".join(map(repr, ab))}),
    _WEIGHT.map(lambda beta: {"beta": repr(beta)}),
)


@settings(deadline=None, max_examples=300)
@given(
    command=st.sampled_from(("ci", "estimate")),
    counts=st.tuples(st.integers(1, 2**63), *[st.integers(0, 2**63)] * 3),
    weights=_WEIGHT_FLAGS,
    # Levels stop short of 1 - 2**-53, the largest float below 1: its
    # (1+level)/2 rounds to 1, where the oracle's quantile raises (and ci
    # exits 4, naming the quantile's p).
    level=st.floats(0.0, 1.0 - 2**-52, exclude_min=True),
)
def test_ci_and_estimate_agree_with_the_oracle(command, counts, weights, level):
    expect = {"command": command, "format": "json", "counts": counts, **weights}
    if command == "ci":
        expect["level"] = repr(level)
    argv = [command, "--counts", ",".join(map(str, counts)), "--format", "json"]
    for flag in ("ab", "beta", "level"):
        argv += [f"--{flag}", expect[flag]] if flag in expect else []
    assert ORACLE.check(expect, _stdout(*argv)) == []


@settings(deadline=None, max_examples=100)
@given(
    max_weight=st.sampled_from(sorted(ORACLE.BOUND_TABLE)),
    share=st.floats(1e-3, 1.0),
    fn_is_max=st.booleans(),
    delta=st.floats(1e-3, 1.0),
    ez=st.none() | st.floats(1e-3, 1.0),
)
def test_plan_at_the_table_weights_agrees_with_the_oracle(max_weight, share, fn_is_max, delta, ez):
    low = max_weight * share
    weights = (low, max_weight) if fn_is_max else (max_weight, low)
    expect = {"command": "plan", "format": "json", "delta": repr(delta)}
    expect["ab"] = ",".join(map(repr, weights))
    argv = ["plan", "--delta", expect["delta"], "--ab", expect["ab"], "--format", "json"]
    if ez is not None:
        expect["ez"] = repr(ez)
        argv += ["--ez", expect["ez"]]
    assert ORACLE.check(expect, _stdout(*argv)) == []
