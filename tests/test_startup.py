"""numpy and dataclasses stay out of the scalar paths: the package and the
scalar CLI commands start without them."""

import json
import subprocess
import sys

# Runs in a fresh interpreter: imports the package, then each command through
# cli.main, and prints after each step whether numpy and dataclasses have
# been imported.
PROBE = """
import contextlib, io, json, sys
import ottobounds
from ottobounds import cli
loaded = lambda: ("numpy" in sys.modules, "dataclasses" in sys.modules)
seen = [("import ottobounds", 0, *loaded())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append((" ".join(argv), code, *loaded()))
print(json.dumps(seen))
"""

SCALAR_COMMANDS = [
    ["eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2", "--r", "0.3"],
    ["eval", "--w1", "1", "--w2", "2", "--b1", "2", "--b2", "0.2", "--mode", "custom",
     "--lam", "1.5", "--placement", "cold", "--r", "0.3"],
    ["fridge", "--tau", "0.6", "--r", "0.1"],
    ["fig2", "--eta-c", "0.3", "--eta-c", "0.7", "--count", "31", "--format", "json"],
    ["fig3", "--count", "41"],
    ["verify", "--suite", "identities"],
    ["verify", "--suite", "windows"],
]


def probe(commands):
    res = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_package_and_scalar_commands_start_without_numpy():
    for step, code, numpy_loaded, _ in probe(SCALAR_COMMANDS):
        assert code == 0, step
        assert not numpy_loaded, step


def test_package_and_scalar_commands_start_without_dataclasses():
    # The public records (ottobounds._record) replace frozen dataclasses,
    # whose import pulled in inspect, ast and dis at every start-up.
    for step, code, _, dataclasses_loaded in probe(SCALAR_COMMANDS):
        assert code == 0, step
        assert not dataclasses_loaded, step


def test_the_ceiling_suite_still_loads_numpy():
    (_, _, before, _), (step, code, after, _) = probe([["verify", "--suite", "ceiling", "--budget", "0"]])
    assert not before
    assert code == 0 and after, step
