"""The README's pointers and its CLI synopsis, kept live.

Each numbered entry under "## Numerical promises" names, after an arrow,
what holds it: pytest node ids (``tests/test_x.py::test_y``), which pytest
must collect, and ``module.name``s of the package, which must import and
carry a docstring of their own.  The entry "Strict xfails" names exactly
the tests that carry a strict xfail.  A node id anywhere in the README must
be collected, and a path in backticks must exist.  Each ``ottobounds ...``
line of the synopsis under "## Command line" must exit 0.
"""

import importlib
import inspect
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from _cli import run_cli
from ottobounds import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


# The promise list, one string per numbered entry (the text before it is its preamble).
PROMISES = re.split(r"\n(?=\d+\. )", _section("Numerical promises"))[1:]
NODE_ID = re.compile(r"`(tests/\w+\.py::\w+)`")
SYNOPSIS = [shlex.split(line)[1:]
            for line in _section("Command line").split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
            if line.startswith("ottobounds ")]


def _pointers(entry):
    """The backticked names after the entry's arrow."""
    return re.findall(r"`([^`]+)`", entry.split("→", 1)[1]) if "→" in entry else []


def _has_own_docstring(obj):
    if inspect.isclass(obj):
        doc = vars(obj).get("__doc__")
    elif inspect.ismodule(obj) or inspect.isroutine(obj):
        doc = obj.__doc__
    else:
        return False   # a constant's __doc__ is its type's
    return bool(doc and doc.strip())


def _resolve(name):
    """``special.coth`` or ``ottobounds.fridge``: the object, from the package."""
    first, *rest = name.removeprefix("ottobounds.").split(".")
    obj = importlib.import_module(f"ottobounds.{first}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


# Collects the suite in a child process, as the command line would, and
# prints {node id: whether it carries a strict xfail} as its last line.
_COLLECT = """
import json, pytest

class Recorder:
    def pytest_collection_finish(self, session):
        default = session.config.getini("xfail_strict")
        marks = {item.nodeid: item.get_closest_marker("xfail") for item in session.items}
        self.items = {node: m is not None and m.kwargs.get("strict", default)
                      for node, m in marks.items()}

recorder = Recorder()
code = pytest.main(["--collect-only", "-q", "-p", "no:cacheprovider"], plugins=[recorder])
print(json.dumps({"code": int(code), "items": recorder.items}))
"""


@pytest.fixture(scope="module")
def collected():
    res = subprocess.run([sys.executable, "-c", _COLLECT], cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    report = json.loads(res.stdout.splitlines()[-1])
    assert report["code"] == 0, res.stdout[-2000:]
    return report["items"]


def _function_id(node):
    return node.split("[", 1)[0]


def test_each_promise_names_what_holds_it():
    assert [int(entry.split(".", 1)[0]) for entry in PROMISES] == list(range(1, len(PROMISES) + 1))
    assert PROMISES and [entry[:60] for entry in PROMISES if not _pointers(entry)] == []


def test_each_node_id_in_the_readme_is_collected(collected):
    functions = {_function_id(node) for node in collected}
    named = set(NODE_ID.findall(README))
    assert named, "no node id found"
    assert sorted(named - functions) == []


def test_each_named_object_imports_with_a_docstring():
    names = [p for entry in PROMISES for p in _pointers(entry) if "::" not in p]
    assert names, "no module.name pointer found"
    missing = []
    for name in names:
        try:
            obj = _resolve(name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{name}: {exc!r}")
            continue
        if not _has_own_docstring(obj):
            missing.append(f"{name}: no docstring")
    assert missing == []


def test_the_strict_xfail_entry_names_exactly_the_strict_xfails(collected):
    entry, = [e for e in PROMISES if e.split(" ", 1)[1].startswith("**Strict xfails.**")]
    xfails = {_function_id(node) for node, strict in collected.items() if strict}
    assert set(_pointers(entry)) == xfails


def test_each_path_in_backticks_exists():
    paths = set(re.findall(r"`((?:tests|bench|src)/[\w/.]*)`", README))
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []


def test_the_synopsis_has_one_line_per_subcommand():
    assert sorted(argv[0] for argv in SYNOPSIS) == sorted(cli._SUBCOMMANDS)


@pytest.mark.parametrize("argv", SYNOPSIS, ids=" ".join)
def test_each_synopsis_command_exits_0(argv):
    res = run_cli(*argv)
    assert res.returncode == 0, res.stderr
    assert res.stdout
