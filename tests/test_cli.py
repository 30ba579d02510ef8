import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from tverskyci import (
    EstimateReport,
    HistogramSummary,
    PlanResult,
    ScoreModel,
    SimulationConfig,
    SimulationReport,
    TverskyParams,
)
from tverskyci.cli import main
from tverskyci.schemas import CI_SCHEMA, PLAN_SCHEMA, SCHEMAS_BY_COMMAND, SIMULATE_SCHEMA


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


def test_conflicting_inputs_is_exit_1(capsys):
    code, _, _ = run_cli(
        capsys, "ci", "--counts", "1,1,1,1", "--summary", "4,0.25,0.5,0.5"
    )
    assert code == 1


def test_missing_input_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "estimate", "--beta", "1")
    assert code == 1
    assert "--input or --counts" in err


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


def test_degenerate_sample_is_exit_3(capsys):
    code, _, err = run_cli(capsys, "ci", "--counts", "0,5,5,90")
    assert code == 3
    assert "true positives" in err


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
    return {field.name for field in dataclasses.fields(cls)} - set(omit)


def test_dataclass_payloads_have_exactly_the_schema_fields():
    # ci, plan and simulate print library dataclasses as they are; a field
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

