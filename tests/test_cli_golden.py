"""Byte-for-byte contract of the command line: stdout, stderr, exit code.

Each case runs ``cli.main(argv)`` in-process (``_cli.run_cli``) and compares
what it wrote and returned with the files under ``tests/golden/cli/``, which
``tests/_freeze_goldens.py`` generates.  A change to any byte of CLI
output fails here; regenerate the files only when the change is deliberate.
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from _cli import run_cli
from ottobounds import cli
from ottobounds.errors import DomainError

GOLDEN = Path(__file__).parent / "golden" / "cli"

ENGINE = ["eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2"]
OUT = "{out}"   # replaced by a temporary path; the file's bytes are compared too

# name -> argv.  Usage errors exit 2 from argparse with a message on stderr.
CASES = {
    "eval_hot": ENGINE + ["--r", "0.5"],
    "eval_cold": ["eval", "--w1", "1", "--w2", "2", "--b1", str(0.01 / 0.75), "--b2", "0.01",
                  "--r", "0.2", "--placement", "cold"],
    "eval_custom_lam": ENGINE + ["--mode", "custom", "--lam", "1.25"],
    "eval_adiabatic": ENGINE + ["--r", "0.3", "--mode", "adiabatic"],
    # Known defect (ROADMAP [total-cycle]): the hot-bath factor overflows, so
    # this pins "q2": Infinity, "w_ext": NaN and "mode": "accelerator" with
    # exit 0.  The change that fixes the saturation updates this case on purpose.
    "eval_r400": ENGINE + ["--r", "400"],
    "eval_usage_freqs": ["eval", "--w1", "2", "--w2", "1", "--b1", "2", "--b2", "0.2"],
    "eval_usage_custom_no_lam": ENGINE + ["--mode", "custom"],
    "eval_usage_lam_not_custom": ENGINE + ["--lam", "2"],
    "fig2_csv_two_curves": ["fig2", "--eta-c", "0.2", "--eta-c", "0.4", "--r-start", "0",
                            "--r-stop", "2", "--count", "21"],
    "fig2_json": ["fig2", "--eta-c", "0.3", "--r-start", "0", "--r-stop", "1", "--count", "5",
                  "--format", "json"],
    "fig2_single_point": ["fig2", "--eta-c", "0.2", "--r-start", "0", "--r-stop", "0",
                          "--count", "1"],
    "fig2_usage_r_stop_inf": ["fig2", "--eta-c", "0.2", "--r-stop", "inf"],
    "fig2_usage_count_negative": ["fig2", "--eta-c", "0.2", "--count", "-3"],
    "fig3_csv": ["fig3", "--start", "0.01", "--stop", "0.99", "--count", "99"],
    "fig3_json": ["fig3", "--count", "5", "--format", "json"],
    "fig3_usage_reversed": ["fig3", "--start", "0.9", "--stop", "0.1"],
    "fig3_out_file": ["fig3", "--count", "5", "--out", OUT],
    "fridge_feasible": ["fridge", "--tau", str(2.0 / 3.0), "--r", "0"],
    "fridge_infeasible": ["fridge", "--tau", "0.4", "--r", "0"],
    "fridge_usage_tau_1": ["fridge", "--tau", "1"],
    "verify_identities": ["verify", "--suite", "identities"],
    "verify_windows": ["verify", "--suite", "windows"],
    "verify_optimality": ["verify", "--suite", "optimality"],
    "verify_ceiling_seed7": ["verify", "--suite", "ceiling", "--seed", "7", "--budget", "5000"],
    "verify_ceiling_seed7_default_budget": ["verify", "--suite", "ceiling", "--seed", "7"],
    "verify_usage_seed_negative": ["verify", "--seed", "-1"],
    # An OttoError raised by a command: exit 1 with the error object on stdout.
    "error_payload": ["fig3", "--count", "5"],
    # sech 2r underflows to 0 near r = 372: the rows must cross it unchanged.
    "fig2_csv_sech_underflow": ["fig2", "--eta-c", "0.2", "--eta-c", "1e-12", "--r-start", "0",
                                "--r-stop", "400", "--count", "41"],
    # The parser itself: help, version, and the two ways to name no valid command.
    "help_main": ["--help"],
    **{f"help_{cmd}": [cmd, "--help"] for cmd in ("eval", "fig2", "fig3", "fridge", "verify")},
    "version": ["--version"],
    "usage_no_command": [],
    "usage_unknown_command": ["bogus"],
}
RAISING = {"error_payload": "fig3"}   # case -> command replaced by one that raises


def _raise_domain_error(args, parser):
    raise DomainError("synthetic failure")


def run_case(name, tmp_dir):
    """Run one case in-process, its --out file in ``tmp_dir``."""
    out = Path(tmp_dir) / f"{name}.out"
    argv = [str(out) if a == OUT else a for a in CASES[name]]
    patch = ({RAISING[name]: (*cli._SUBCOMMANDS[RAISING[name]][:2], _raise_domain_error)}
             if name in RAISING else {})
    with mock.patch.dict(cli._SUBCOMMANDS, patch):
        return run_cli(*argv)


def read_golden(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    out_file = GOLDEN / f"{name}.file"
    return (codes[name], (GOLDEN / f"{name}.stdout").read_bytes(),
            (GOLDEN / f"{name}.stderr").read_bytes(),
            out_file.read_bytes() if out_file.exists() else None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, tmp_path):
    res = run_case(name, tmp_path)
    got = (res.returncode, res.stdout.encode(), res.stderr.encode(), res.written)
    assert got == read_golden(name)


def test_every_golden_file_has_a_case():
    names = {p.name.partition(".")[0] for p in GOLDEN.iterdir()} - {"exit_codes"}
    assert names == set(CASES)
