"""Regenerate the byte-for-byte CLI contract in ``tests/golden/cli/``.

    PYTHONPATH=src python3 tests/_freeze_cli_golden.py

For every case of ``tests/test_cli_golden.py`` it writes ``<case>.stdout``,
``<case>.stderr``, the ``--out`` file as ``<case>.file`` where there is one,
and all exit codes to ``exit_codes.json``.  It prints the name of each file
whose bytes it changes (or that is new), and each exit code that changes.

Regenerate only in a change that deliberately alters CLI output, and record
in CHANGES.md which cases changed and why.  A refactor must leave these
files untouched: they exist to show that its output has the same bytes.
"""

import json
import tempfile
from pathlib import Path

from test_cli_golden import CASES, GOLDEN, run_case


def _write(path, data):
    """Write ``data`` to ``path``, printing the file's name if its bytes change."""
    if not path.exists() or path.read_bytes() != data:
        print(f"  changed {path.name}")
    path.write_bytes(data)


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes_file = GOLDEN / "exit_codes.json"
    old_codes = json.loads(codes_file.read_text()) if codes_file.exists() else {}
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            res = run_case(name, tmp)
            codes[name] = res.returncode
            print(f"{name:28s} exit {codes[name]}")
            if old_codes.get(name) != codes[name]:
                print(f"  changed exit code: {old_codes.get(name)} -> {codes[name]}")
            _write(GOLDEN / f"{name}.stdout", res.stdout.encode())
            _write(GOLDEN / f"{name}.stderr", res.stderr.encode())
            if res.written is not None:
                _write(GOLDEN / f"{name}.file", res.written)
    for name in sorted(old_codes.keys() - codes.keys()):
        print(f"{name:28s} removed (exit {old_codes[name]})")
    _write(codes_file, (json.dumps(codes, indent=2, sort_keys=True) + "\n").encode())


if __name__ == "__main__":
    main()
