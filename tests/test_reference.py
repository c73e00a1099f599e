"""`tests/_reference.py` stays the one independent high-precision route, and
keeps its digits where 1 - eta_c rounds to 1."""

import ast
from decimal import Decimal, localcontext
from pathlib import Path

import _reference as ref

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


def test_the_engine_bounds_keep_their_digits_at_a_tiny_carnot_efficiency():
    # At 50 digits 1 - eta_c rounds to 1 here: formed by subtracting from 1,
    # the bounds came out 0.
    with localcontext() as ctx:
        ctx.prec = 60
        eta_c = Decimal(1e-60)   # the double's exact value
        want = {"generalized_carnot": eta_c, "eta_mw": eta_c / 6,
                "eta_up": (3 - 2 * Decimal(2).sqrt()) * eta_c}
        for name, value in want.items():
            got = getattr(ref, name)(1e-60, 0)
            got = Decimal(got.man) * Decimal(2) ** got.exp   # the mpf's value
            assert abs(got - value) <= Decimal("1e-40") * value, (name, got)
