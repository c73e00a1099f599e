"""`tests/_reference.py` stays the one independent high-precision route."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def _imported(path):
    """Top-level names of every module that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").split(".")[0])
    return names


def test_the_reference_does_not_import_ottobounds():
    # A reference that imported ottobounds could share the bug it checks.
    assert "ottobounds" not in _imported(TESTS / "_reference.py")


def test_no_other_test_module_imports_mpmath():
    # Each formula lives once, in _reference.
    users = [p.name for p in sorted(TESTS.glob("*.py"))
             if p.name != "_reference.py" and "mpmath" in _imported(p)]
    assert users == []
