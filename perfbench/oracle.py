"""Expected outputs, computed from the paper's formulas without tverskyci.

Every check takes what an invocation printed and the facts the generator
knows (counts, weights, settings) and returns a list of problems; an
empty list means the output is correct. Nothing here imports the package
under test, so a wrong formula in the program cannot also be wrong here.

Tolerances:

* JSON numbers recomputed from the formulas: relative 1e-12.
* Text reports print six decimals: absolute 5e-7 beyond that.
* Planning counts use the tabulated bound and the documented rule
  ceil(q * (1 - 1e-12)), which treats quotients within 1e-12 of an
  integer as exact.
* ``simulate`` is random. Only ``true_value`` and the echoed config have
  a closed form; the rest must fall in the ranges below, which the
  reference configuration (10 000 replications) meets with a wide margin.
* ``bootstrap-check``: the gap between the analytic and bootstrap se must
  stay within BOOTSTRAP_GAP_TOL at 1M resamples.
"""

from __future__ import annotations

import json
import math
import re
from statistics import NormalDist

RTOL = 1e-12
TEXT_ATOL = 5e-7 + 1e-12
# The five tabulated values V(m) of the planning bound.
BOUND_TABLE = {0.5: 0.1549, 0.6: 0.1695, 0.7: 0.1861, 0.8: 0.2050, 0.9: 0.2262}
_CEIL_RTOL = 1e-12
COVERAGE_RANGE = (0.93, 0.97)
MEAN_ESTIMATE_ATOL = 0.005
SD_OVER_SE_RANGE = (0.9, 1.1)
BOOTSTRAP_GAP_TOL = 0.02


class _Problems(list):
    def close(self, name: str, got: object, want: float, rtol: float = RTOL) -> None:
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            self.append(f"{name}: expected a number near {want!r}, got {got!r}")
        elif not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-300):
            self.append(f"{name}: got {got!r}, want {want!r} (rtol {rtol:g})")

    def near(self, name: str, got: float, want: float, atol: float = TEXT_ATOL) -> None:
        if not abs(got - want) <= atol:
            self.append(f"{name}: got {got!r}, want {want!r} (atol {atol:g})")

    def equal(self, name: str, got: object, want: object) -> None:
        if got != want:
            self.append(f"{name}: got {got!r}, want {want!r}")


# ---------------------------------------------------------------------------
# the formulas
# ---------------------------------------------------------------------------


def weights(beta: str | None, ab: str | None) -> tuple[float, float]:
    """(fp_weight, fn_weight): F-beta gives 1/(1+beta^2), beta^2/(1+beta^2)."""
    if ab is not None:
        a, b = ab.split(",")
        return float(a), float(b)
    b = float(beta) if beta is not None else 1.0
    return 1.0 / (1.0 + b * b), b * b / (1.0 + b * b)


def interval(counts, fp_w: float, fn_w: float, level: float) -> dict:
    """Estimate, variance, se and clipped interval for exact counts.

    variance = (1/t2 - 1 + (1/t - 1)^2) * t^4 / tp_rate with t the index
    and t2 the index at squared weights; se = sqrt(variance / n).
    """
    tp, fn, fp, tn = counts
    n = tp + fn + fp + tn
    r1 = (fp_w * fp + fn_w * fn) / tp  # 1/t - 1
    r2 = (fp_w * fp_w * fp + fn_w * fn_w * fn) / tp  # 1/t2 - 1
    t = 1.0 / (1.0 + r1)
    variance = (r2 + r1 * r1) * t**4 / (tp / n)
    se = math.sqrt(variance / n)
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * se
    return {
        "n": n,
        "estimate": t,
        "variance": variance,
        "se": se,
        "half_width": half,
        "ci_lower": max(0.0, t - half),
        "ci_upper": min(1.0, t + half),
    }


def plan_counts(delta: float, fp_w: float, fn_w: float, prevalence: float | None):
    bound = BOUND_TABLE[round(max(fp_w, fn_w), 9)]
    scale = delta * delta * fn_w
    events = math.ceil(bound / scale * (1.0 - _CEIL_RTOL))
    total = None
    if prevalence is not None:
        total = math.ceil(bound / (scale * prevalence) * (1.0 - _CEIL_RTOL))
    return bound, events, total


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def population_index(pz: float, mu: float, threshold: float, fp_w: float, fn_w: float) -> float:
    """Index implied by the Gaussian score model's cell probabilities."""
    p_tp = pz * normal_cdf(mu - threshold)
    p_fn = pz - p_tp
    p_fp = (1.0 - pz) * normal_cdf(-threshold)
    return p_tp / (p_tp + fp_w * p_fp + fn_w * p_fn)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _text_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _check_weights(p: _Problems, params: dict, fp_w: float, fn_w: float) -> None:
    p.close("params.fp_weight", params.get("fp_weight"), fp_w)
    p.close("params.fn_weight", params.get("fn_weight"), fn_w)


def _check_text_weights(p: _Problems, line: str, fp_w: float, fn_w: float) -> None:
    m = re.fullmatch(r"fp=(\S+) fn=(\S+)(?:\s.*)?", line)
    if not m:
        p.append(f"weights line {line!r} unparsable")
        return
    p.close("weights.fp", float(m[1]), fp_w, rtol=1e-5)
    p.close("weights.fn", float(m[2]), fn_w, rtol=1e-5)


def _ci(p: _Problems, stdout: str, expect: dict) -> None:
    fp_w, fn_w = weights(expect.get("beta"), expect.get("ab"))
    level = float(expect.get("level", "0.95"))
    want = interval(expect["counts"], fp_w, fn_w, level)
    if expect["format"] == "json":
        got = json.loads(stdout)
        p.equal("command", got.get("command"), "ci")
        p.equal("n", got.get("n"), want["n"])
        p.close("level", got.get("level"), level)
        _check_weights(p, got.get("params", {}), fp_w, fn_w)
        for key in ("estimate", "variance", "se", "half_width", "ci_lower", "ci_upper"):
            p.close(key, got.get(key), want[key])
        return
    got = _text_fields(stdout)
    p.equal("n", got.get("n"), str(want["n"]))
    p.close("level", float(got["level"]), level)
    _check_text_weights(p, got["weights"], fp_w, fn_w)
    for key in ("estimate", "se", "half_width", "variance"):
        p.near(key, float(got[key]), want[key])
    lower, upper = (float(v) for v in got["ci"].strip("[]").split(","))
    p.near("ci_lower", lower, want["ci_lower"])
    p.near("ci_upper", upper, want["ci_upper"])


def _estimate(p: _Problems, stdout: str, expect: dict) -> None:
    fp_w, fn_w = weights(expect.get("beta"), expect.get("ab"))
    tp, fn, fp, tn = expect["counts"]
    got = json.loads(stdout)
    p.equal("command", got.get("command"), "estimate")
    p.equal("n", got.get("n"), tp + fn + fp + tn)
    _check_weights(p, got.get("params", {}), fp_w, fn_w)
    p.close("estimate", got.get("estimate"), tp / (tp + fp_w * fp + fn_w * fn))
    p.close("precision", got.get("precision"), tp / (tp + fp))
    p.close("recall", got.get("recall"), tp / (tp + fn))


def _plan(p: _Problems, stdout: str, expect: dict) -> None:
    fp_w, fn_w = weights(expect.get("beta"), expect.get("ab"))
    delta = float(expect["delta"])
    ez = float(expect["ez"]) if "ez" in expect else None
    bound, events, total = plan_counts(delta, fp_w, fn_w, ez)
    if expect["format"] == "json":
        got = json.loads(stdout)
        p.equal("command", got.get("command"), "plan")
        _check_weights(p, got.get("params", {}), fp_w, fn_w)
        p.equal("bound", got.get("bound"), bound)
        p.close("target_se", got.get("target_se"), delta)
        p.equal("required_events", got.get("required_events"), events)
        p.equal("required_total", got.get("required_total"), total)
        if ez is None:
            p.equal("prevalence", got.get("prevalence"), None)
        else:
            p.close("prevalence", got.get("prevalence"), ez)
        return
    got = _text_fields(stdout)
    _check_text_weights(p, got["weights"], fp_w, fn_w)
    p.equal("bound", got.get("bound"), f"{bound:.4f}")
    p.equal("required_events", got.get("required_events"), str(events))
    p.equal("required_total", got.get("required_total"), None if total is None else str(total))


def _bound_table(p: _Problems, stdout: str, expect: dict) -> None:
    want = sorted(BOUND_TABLE.items())
    if expect["format"] == "json":
        got = json.loads(stdout)
        p.equal("command", got.get("command"), "bound-table")
        rows = [(r.get("max_weight"), r.get("bound")) for r in got.get("rows", [])]
    else:
        lines = stdout.split("\n")
        p.equal("header", lines[0].split(), ["max_weight", "bound"])
        rows = [tuple(float(x) for x in line.split()) for line in lines[1:] if line.strip()]
    p.equal("rows", rows, want)


def _simulate(p: _Problems, stdout: str, expect: dict) -> None:
    cfg = expect["config"]
    fp_w, fn_w = weights(cfg.get("beta"), None)
    got = json.loads(stdout)
    p.equal("command", got.get("command"), "simulate")
    echo = got.get("config", {})
    for key, want in (("prevalence", cfg["pz"]), ("shift", cfg["mu"]),
                      ("threshold", cfg["threshold"]), ("level", "0.95")):
        p.close(f"config.{key}", echo.get(key), float(want))
    for key in ("n", "replications", "seed"):
        p.equal(f"config.{key}", echo.get(key), int(cfg[key]))
    _check_weights(p, echo.get("params", {}), fp_w, fn_w)
    report = got.get("report", {})
    true_value = population_index(float(cfg["pz"]), float(cfg["mu"]),
                                  float(cfg["threshold"]), fp_w, fn_w)
    p.close("report.true_value", report.get("true_value"), true_value)
    p.equal("report.degenerate_count", report.get("degenerate_count"), 0)
    coverage = report.get("coverage", -1.0)
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        p.append(f"report.coverage {coverage!r} outside {COVERAGE_RANGE}")
    p.near("report.mean_estimate", report.get("mean_estimate", math.inf), true_value,
           MEAN_ESTIMATE_ATOL)
    ratio = report.get("sd_estimates", 0.0) / report.get("mean_se", math.inf)
    if not SD_OVER_SE_RANGE[0] <= ratio <= SD_OVER_SE_RANGE[1]:
        p.append(f"sd_estimates/mean_se {ratio!r} outside {SD_OVER_SE_RANGE}")
    hist = got.get("histogram") or {}
    reps = int(cfg["replications"])
    p.equal("histogram.n", hist.get("n"), reps)
    p.equal("histogram.sum(counts)", sum(hist.get("counts", [])), reps)
    p.equal("histogram.bins", len(hist.get("counts", [])), 30)


def _bootstrap_check(p: _Problems, stdout: str, expect: dict) -> None:
    fp_w, fn_w = weights(expect.get("beta"), None)
    want = interval(expect["counts"], fp_w, fn_w, 0.95)
    got = json.loads(stdout)
    p.equal("command", got.get("command"), "bootstrap-check")
    p.equal("n", got.get("n"), want["n"])
    p.equal("resamples", got.get("resamples"), int(expect["resamples"]))
    p.equal("seed", got.get("seed"), int(expect["seed"]))
    _check_weights(p, got.get("params", {}), fp_w, fn_w)
    p.close("analytic_se", got.get("analytic_se"), want["se"])
    boot, gap = got.get("bootstrap_se"), got.get("relative_gap")
    if isinstance(boot, float) and isinstance(gap, float):
        p.close("relative_gap", gap, (boot - want["se"]) / want["se"], rtol=1e-9)
        if abs(gap) > BOOTSTRAP_GAP_TOL:
            p.append(f"relative_gap {gap!r} beyond {BOOTSTRAP_GAP_TOL}")
    else:
        p.append(f"bootstrap_se {boot!r} / relative_gap {gap!r} not numbers")


_CHECKS = {
    "ci": _ci,
    "estimate": _estimate,
    "plan": _plan,
    "bound-table": _bound_table,
    "simulate": _simulate,
    "bootstrap-check": _bootstrap_check,
}


def check(expect: dict, stdout: str) -> list[str]:
    """Problems with one invocation's stdout; empty when it is correct."""
    problems = _Problems()
    try:
        _CHECKS[expect["command"]](problems, stdout, expect)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            ZeroDivisionError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def corrupt(stdout: str) -> str:
    """The same output with the first digit after the first decimal point
    changed: a deliberately wrong answer for the oracle self-check."""
    m = re.search(r"\d\.(\d)", stdout)
    if m is None:
        return stdout + "corrupted"
    digit = str((int(m[1]) + 5) % 10)
    return stdout[: m.start(1)] + digit + stdout[m.end(1) :]
