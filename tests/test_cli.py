import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _reference as ref
from _cli import run_cli
from ottobounds import cli
from ottobounds.engine import eta_rk, eta_up_thermal
from ottobounds.errors import DomainError, InfeasibleError


def fmt(x):
    return format(x, ".12g")


# ---------------------------------------------------------------------------
# eval


def test_eval_engine_example():
    res = run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2",
                  "--r", "0", "--mode", "sudden")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["mode"] == "engine"
    q2, _, w_ext = ref.heats(1.0, 2.0, 2.0, 0.2, 0.0)
    assert math.isclose(payload["eta"], w_ext / q2, rel_tol=1e-10)
    assert payload["cop"] is None
    assert math.isclose(payload["w_ext"], payload["q2"] + payload["q4"], rel_tol=1e-12)
    assert payload["w_in"] == -payload["w_ext"]
    assert payload["inputs"]["lam"] == 1.25
    # beta*omega = 2 and 0.4 both sit outside the high-temperature regime.
    assert len(payload["warnings"]) == 2


def test_eval_cold_squeezed_refrigerator():
    res = run_cli("eval", "--w1", "1", "--w2", "2", "--b1", str(0.01 / 0.75),
                  "--b2", "0.01", "--r", "0.2", "--placement", "cold")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["mode"] == "refrigerator"
    assert payload["eta"] is None
    assert payload["cop"] > 0
    assert payload["warnings"] == []


def test_eval_usage_errors_exit_2():
    assert run_cli("eval", "--w1", "2", "--w2", "1", "--b1", "2", "--b2", "0.2").returncode == 2
    assert run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2",
                   "--r", "-1").returncode == 2
    assert run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "0.1", "--b2", "0.2").returncode == 2
    assert run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2",
                   "--r", "inf").returncode == 2
    assert run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2",
                   "--mode", "custom").returncode == 2
    assert run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2",
                   "--lam", "2").returncode == 2


def test_eval_ht_warning_threshold_is_inclusive():
    base = ("eval", "--w1", "1", "--w2", "2", "--b2", "0.1")
    res = run_cli(*base, "--b1", "0.3")
    assert res.returncode == 0
    assert json.loads(res.stdout)["warnings"] == []
    res = run_cli(*base, "--b1", "0.31")
    assert res.returncode == 0
    [warning] = json.loads(res.stdout)["warnings"]
    assert warning.startswith("beta1*omega1 = 0.31 exceeds 0.3;")


def test_eval_custom_lambda():
    res = run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2",
                  "--mode", "custom", "--lam", "1.25")
    assert res.returncode == 0
    sudden = run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2")
    assert json.loads(res.stdout)["eta"] == json.loads(sudden.stdout)["eta"]


def _nan_fields(payload):
    return [k for k, v in payload.items() if isinstance(v, float) and v != v]


@pytest.mark.xfail(strict=True, reason="coth(b1 w1 / 2) and lambda overflow at w1 = 1e-320, so "
                   "h_a, h_b and h_d print Infinity and q4, w_ext NaN (ROADMAP [total-cycle])")
def test_eval_in_the_classical_limit_has_finite_corners():
    res = run_cli("eval", "--w1", "1e-320", "--w2", "2", "--b1", "2", "--b2", "0.2",
                  "--r", "0.5")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    # h_a = (w1/2) coth(b1 w1/2) tends to 1/beta_cold as w1 -> 0.
    assert math.isclose(payload["h_a"], 0.5, rel_tol=1e-12)
    assert _nan_fields(payload) == []


@pytest.mark.xfail(strict=True, reason="delta_h of the squeezed cold bath overflows at "
                   "b1 w1 = 710: q2 = -inf, q4 = +inf, w_ext NaN and a 'heater' label, though "
                   "the exact cycle refrigerates with COP 2/3 (ROADMAP [total-cycle])")
def test_eval_with_a_saturated_cold_bath_is_a_refrigerator():
    res = run_cli("eval", "--w1", "1", "--w2", "2", "--b1", "710", "--b2", "1e-3",
                  "--r", "1", "--placement", "cold")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["mode"] == "refrigerator"
    assert _nan_fields(payload) == []


# ---------------------------------------------------------------------------
# fig2


def test_fig2_header_rows_and_endpoints():
    res = run_cli("fig2", "--eta-c", "0.2", "--r-start", "0", "--r-stop", "6",
                  "--count", "121")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "r,eta_c,eta_up,eta_mw,eta_c_gen"
    assert len(lines) == 1 + 121
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert first[2] == fmt(eta_up_thermal(0.2))
    assert first[3] == fmt(eta_rk(0.2))
    assert abs(float(last[2]) - 0.5) < 5e-3
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")]
        assert row[3] <= row[2] < 0.5  # eta_mw <= eta_up < 1/2


def test_fig2_multiple_curves_row_count():
    res = run_cli("fig2", "--eta-c", "0.2", "--eta-c", "0.4",
                  "--r-start", "0", "--r-stop", "2", "--count", "21")
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 1 + 2 * 21


def test_fig2_single_point_reduces_to_thermal_bounds():
    res = run_cli("fig2", "--eta-c", "0.2", "--r-start", "0", "--r-stop", "0",
                  "--count", "1")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[2] == fmt(eta_up_thermal(0.2))
    assert row[3] == fmt(eta_rk(0.2))
    assert row[4] == fmt(0.2)


def test_fig2_json_format():
    res = run_cli("fig2", "--eta-c", "0.3", "--r-start", "0", "--r-stop", "1",
                  "--count", "5", "--format", "json")
    payload = json.loads(res.stdout)
    assert payload["columns"] == ["r", "eta_c", "eta_up", "eta_mw", "eta_c_gen"]
    assert len(payload["rows"]) == 5
    assert payload["warnings"] == []


def test_fig2_usage_errors():
    assert run_cli("fig2", "--eta-c", "1.2").returncode == 2
    assert run_cli("fig2", "--eta-c", "0.2", "--r-start", "2", "--r-stop", "1").returncode == 2
    assert run_cli("fig2", "--eta-c", "0.2", "--count", "0").returncode == 2
    # 0 * inf made the first point NaN, which used to exit 1.
    assert run_cli("fig2", "--eta-c", "0.2", "--r-stop", "inf").returncode == 2
    assert run_cli("fig2", "--eta-c", "0.2", "--r-start", "nan").returncode == 2


# ---------------------------------------------------------------------------
# fig3


def test_fig3_chain_and_spot_row():
    res = run_cli("fig3", "--start", "0.01", "--stop", "0.99", "--count", "99")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "eta_c,eta_up_th,eta_rk,half_eta_c"
    assert len(lines) == 1 + 99
    mid = None
    for line in lines[1:]:
        eta_c, up_th, rk, half = (float(v) for v in line.split(","))
        assert rk <= up_th <= half
        if abs(eta_c - 0.5) < 1e-9:
            mid = (up_th, rk)
    assert mid is not None
    assert abs(mid[0] - 0.111111) < 1e-6
    assert abs(mid[1] - 0.108194) < 1e-6


def test_fig3_usage_errors():
    assert run_cli("fig3", "--start", "0.9", "--stop", "0.1").returncode == 2
    assert run_cli("fig3", "--start", "0", "--stop", "0.9").returncode == 2


# ---------------------------------------------------------------------------
# fridge


def test_fridge_feasible_point():
    res = run_cli("fridge", "--tau", str(2.0 / 3.0), "--r", "0")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["cooling_feasible"] is True
    assert math.isclose(payload["zeta_up"], ref.zeta_up(2.0 / 3.0, 0.0), rel_tol=1e-10)
    assert math.isclose(payload["zeta_c"], 2.0, rel_tol=1e-12)


def test_fridge_infeasible_is_exit_zero():
    res = run_cli("fridge", "--tau", "0.4", "--r", "0")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["cooling_feasible"] is False
    assert payload["zeta_up"] is None
    assert "<= 1/2" in payload["reason"]


def test_fridge_reports_the_documented_half_window():
    res = run_cli("fridge", "--tau", "0.5")
    payload = json.loads(res.stdout)
    lo, hi = payload["r_window"]
    assert lo == 0.0
    assert abs(hi - ref.r_window(0.5)[1]) < 1e-12


def test_fridge_window_at_a_tau_whose_reciprocal_overflows():
    # 1/tau is inf here: the window was [Infinity, Infinity].
    lo, hi = json.loads(run_cli("fridge", "--tau", "1e-320", "--r", "0.5").stdout)["r_window"]
    assert math.isclose(lo, 368.413620445487, rel_tol=1e-14)
    assert math.isclose(hi, 368.760194035767, rel_tol=1e-14)


def test_fridge_usage_errors():
    # --r inf used to exit 1 from inside the report.
    for r in ("-1", "nan", "inf"):
        assert run_cli("fridge", "--tau", "0.5", "--r", r).returncode == 2
    assert run_cli("fridge", "--tau", "1").returncode == 2


# ---------------------------------------------------------------------------
# verify and output plumbing


def test_verify_identities_suite_passes():
    res = run_cli("verify", "--suite", "identities")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["passed"] is True
    assert payload["checks"][0]["worst"] < 1e-12


def test_verify_unknown_suite_is_usage_error():
    assert run_cli("verify", "--suite", "everything").returncode == 2


def test_computation_domain_errors_exit_1(monkeypatch):
    # Errors raised after flag parsing map to exit 1 with a machine-readable
    # error object (usage problems are caught earlier and exit 2).
    def boom(args, parser):
        raise DomainError("synthetic failure")

    monkeypatch.setitem(cli._SUBCOMMANDS, "fig3", (*cli._SUBCOMMANDS["fig3"][:2], boom))
    res = run_cli("fig3", "--count", "5")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["error"]["kind"] == "domain"
    assert payload["error"]["message"] == "synthetic failure"


def test_out_flag_writes_the_file(tmp_path):
    target = tmp_path / "fig3.csv"
    res = run_cli("fig3", "--count", "5", "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    text = target.read_text()
    assert text.startswith("eta_c,eta_up_th,eta_rk,half_eta_c\n")
    assert text.endswith("\n")


def test_out_to_a_missing_directory_is_a_usage_error(tmp_path):
    # An unwritable --out exits 2 with an argparse message, not a traceback.
    target = tmp_path / "missing" / "x.csv"
    res = run_cli("fig3", "--count", "5", "--out", str(target))
    assert res.returncode == 2
    assert res.stdout == ""
    # the subcommand's usage, not the top level's
    assert res.stderr.startswith("usage: ottobounds fig3 ")
    assert (f"ottobounds fig3: error: argument --out: [Errno 2] No such file or directory: "
            f"'{target}'") in res.stderr
    assert "Traceback" not in res.stderr
    assert not target.parent.exists()


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308]),
    st.integers(-10**300, 10**300),
    st.booleans(),
)


@given(rows=st.lists(st.lists(_CSV_VALUES, min_size=3, max_size=3).map(tuple), max_size=8))
def test_csv_rows_have_the_bytes_of_format_12g(rows):
    text = cli._render({"columns": ("a", "b", "c"), "rows": rows}, "csv")
    lines = ["a,b,c"] + [",".join(format(v, ".12g") for v in row) for row in rows]
    assert text == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the entry point: ``python -m ottobounds`` in a fresh interpreter

ENTRY_POINT = [
    ["eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2", "--r", "0.3"],
    ["fridge", "--tau", "0.6", "--r", "0.1"],
    ["fig2", "--eta-c", "0.2", "--eta-c", "0.7", "--count", "21"],
    ["fig3", "--count", "41"],
    ["verify", "--suite", "identities"],
    ["--version"],
    ["fig3", "--start", "0.9", "--stop", "0.1"],   # a usage error: exit 2
]


@pytest.mark.parametrize("argv", ENTRY_POINT, ids=" ".join)
def test_python_m_ottobounds_gives_the_in_process_result(argv):
    proc = subprocess.run([sys.executable, "-m", "ottobounds", *argv], capture_output=True,
                          env={**os.environ, "COLUMNS": "80"}, timeout=600)
    res = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        res.returncode, res.stdout.encode(), res.stderr.encode())


# Exit 1 is the one code that ``main`` returns rather than raises, so only
# ``__main__``'s ``sys.exit`` makes it the process's.  No argv reaches it
# (every natural typed error becomes a usage error first), so the child swaps
# in a command that raises one and runs the package as ``-m`` does.
_RAISING_FRIDGE = """
import runpy
from ottobounds import cli
from ottobounds.errors import InfeasibleError

def fail(args, parser):
    raise InfeasibleError("no cooling window here")

help_line, add_arguments, _ = cli._SUBCOMMANDS["fridge"]
cli._SUBCOMMANDS["fridge"] = (help_line, add_arguments, fail)
runpy.run_module("ottobounds", run_name="__main__")
"""


def _fail(args, parser):
    raise InfeasibleError("no cooling window here")


def test_python_m_ottobounds_exits_1_on_a_typed_error(monkeypatch):
    argv = ["fridge", "--tau", "0.6", "--r", "0.1"]
    proc = subprocess.run([sys.executable, "-c", _RAISING_FRIDGE, *argv], capture_output=True,
                          env={**os.environ, "COLUMNS": "80"}, timeout=600)
    help_line, add_arguments, _ = cli._SUBCOMMANDS["fridge"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "fridge", (help_line, add_arguments, _fail))
    res = run_cli(*argv)
    assert json.loads(proc.stdout) == {
        "error": {"kind": "infeasible", "message": "no cooling window here"}}
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, res.stdout.encode(), res.stderr.encode())
    assert res.returncode == 1
