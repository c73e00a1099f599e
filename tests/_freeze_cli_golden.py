"""Regenerate the byte-for-byte CLI contract in ``tests/golden/cli/``.

    PYTHONPATH=src python3 tests/_freeze_cli_golden.py

For every case of ``tests/test_cli_golden.py`` it writes ``<case>.stdout``,
``<case>.stderr``, the ``--out`` file as ``<case>.file`` where there is one,
and all exit codes to ``exit_codes.json``.

Regenerate only in a change that deliberately alters CLI output, and record
in CHANGES.md which cases changed and why.  A refactor must leave these
files untouched: they exist to show that its output has the same bytes.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from test_cli_golden import CASES, GOLDEN, run_case


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name], written = run_case(name, tmp)
            (GOLDEN / f"{name}.stdout").write_bytes(out.getvalue().encode())
            (GOLDEN / f"{name}.stderr").write_bytes(err.getvalue().encode())
            if written is not None:
                (GOLDEN / f"{name}.file").write_bytes(written)
            print(f"{name:28s} exit {codes[name]}")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
