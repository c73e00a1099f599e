"""Start-up cost: the package and each CLI command import only what they use.

numpy and dataclasses stay out of the scalar paths, ``import ottobounds``
loads no submodule, and each command loads only its own modules."""

import ast
import subprocess
import sys

import pytest

# Runs in a fresh interpreter: imports the package, then runs each command
# through cli.main, and prints after each step what has been imported.  It
# passes data with repr and ast rather than json, so that it can tell
# whether a command loaded json.
PROBE = """
import ast, contextlib, io, sys
def loaded():
    return {"numpy": "numpy" in sys.modules, "json": "json" in sys.modules,
            "dataclasses": "dataclasses" in sys.modules,
            "modules": sorted(m.partition(".")[2] for m in sys.modules
                              if m.startswith("ottobounds."))}
import ottobounds
seen = [("import ottobounds", 0, loaded())]
from ottobounds import cli
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append((" ".join(argv), code, loaded()))
print(repr(seen))
"""

EVAL = ["eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2", "--r", "0.3"]
FRIDGE = ["fridge", "--tau", "0.6", "--r", "0.1"]
FIG2 = ["fig2", "--eta-c", "0.3", "--eta-c", "0.7", "--count", "31"]
FIG3 = ["fig3", "--count", "41"]

SCALAR_COMMANDS = [
    EVAL,
    ["eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2", "--mode", "custom",
     "--lam", "1.5", "--placement", "cold", "--r", "0.3"],
    FRIDGE,
    ["fig2", "--eta-c", "0.3", "--eta-c", "0.7", "--count", "31", "--format", "json"],
    FIG3,
    ["verify", "--suite", "identities"],
    ["verify", "--suite", "windows"],
]

# command -> what it must not load, each in a fresh interpreter
NOT_LOADED = [
    pytest.param(EVAL, {"fridge", "oracle", "verify"}, id="eval"),
    pytest.param(FRIDGE, {"engine", "oracle", "verify"}, id="fridge"),
    pytest.param(FIG2, {"cycle", "fridge", "verify", "json"}, id="fig2"),
    pytest.param(FIG3, {"cycle", "fridge", "verify", "json"}, id="fig3"),
]


def probe(commands):
    res = subprocess.run([sys.executable, "-c", PROBE, repr(commands)],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    return ast.literal_eval(res.stdout)


def test_package_and_scalar_commands_start_without_numpy():
    for step, code, loaded in probe(SCALAR_COMMANDS):
        assert code == 0, step
        assert not loaded["numpy"], step


def test_package_and_scalar_commands_start_without_dataclasses():
    # The public records (ottobounds._record) replace frozen dataclasses,
    # whose import pulled in inspect, ast and dis at every start-up.
    for step, code, loaded in probe(SCALAR_COMMANDS):
        assert code == 0, step
        assert not loaded["dataclasses"], step


def test_the_ceiling_suite_still_loads_numpy():
    (_, _, before), (step, code, after) = probe([["verify", "--suite", "ceiling", "--budget", "0"]])
    assert not before["numpy"]
    assert code == 0 and after["numpy"], step


def test_importing_the_package_loads_no_submodule():
    [(_, _, loaded)] = probe([])
    assert loaded["modules"] == []


@pytest.mark.parametrize("argv, absent", NOT_LOADED)
def test_each_command_loads_only_its_own_modules(argv, absent):
    _, (step, code, loaded) = probe([argv])
    assert code == 0, step
    assert absent.isdisjoint(loaded["modules"] + ["json"] * loaded["json"]), loaded
