"""Regenerate the goldens under ``tests/golden/``: the CLI and the hot paths.

    PYTHONPATH=src python3 tests/_freeze_goldens.py

The CLI contract, ``tests/golden/cli/``: for every case of
``tests/test_cli_golden.py`` it writes ``<case>.stdout``, ``<case>.stderr``,
the ``--out`` file as ``<case>.file`` where there is one, and all exit codes
to ``exit_codes.json``.  It prints the name of each file whose bytes it
changes (or that is new), and each exit code that changes.

The hot-path contract, ``tests/golden/hotpaths.json``: for every function
and input of ``tests/test_hotpaths.py`` it records the ``repr`` of the
result, or the type and message of the raised exception, and prints the key
of each entry whose outcome differs from the file it overwrites (or that the
file lacks), and each function and key that the file has and the new one
drops.

Regenerate only in a change that deliberately alters CLI output, a result or
an error text, and record in CHANGES.md which cases and entries changed and
why.  A refactor must leave these files untouched: they exist to show that
its output keeps its bytes and its results their bits.

The default-seed rows of ``run_suite("all")`` are not a golden here: they
live in ``bench/reference.json``, which the benchmark and
``tests/test_verify.py`` both read.
"""

import json
import tempfile

import test_cli_golden
import test_hotpaths


def _write(path, data):
    """Write ``data`` to ``path``, printing the file's name if its bytes change."""
    if not path.exists() or path.read_bytes() != data:
        print(f"  changed {path.name}")
    path.write_bytes(data)


def freeze_cli():
    golden = test_cli_golden.GOLDEN
    golden.mkdir(parents=True, exist_ok=True)
    codes_file = golden / "exit_codes.json"
    old_codes = json.loads(codes_file.read_text()) if codes_file.exists() else {}
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(test_cli_golden.CASES):
            res = test_cli_golden.run_case(name, tmp)
            codes[name] = res.returncode
            print(f"{name:28s} exit {codes[name]}")
            if old_codes.get(name) != codes[name]:
                print(f"  changed exit code: {old_codes.get(name)} -> {codes[name]}")
            _write(golden / f"{name}.stdout", res.stdout.encode())
            _write(golden / f"{name}.stderr", res.stderr.encode())
            if res.written is not None:
                _write(golden / f"{name}.file", res.written)
    for name in sorted(old_codes.keys() - codes.keys()):
        print(f"{name:28s} removed (exit {old_codes[name]})")
    _write(codes_file, (json.dumps(codes, indent=2, sort_keys=True) + "\n").encode())


def freeze_hotpaths():
    path = test_hotpaths.GOLDEN
    old = json.loads(path.read_text()) if path.exists() else {}
    arg_lists = test_hotpaths.cases()
    golden = {name: test_hotpaths.outcomes(name, arg_lists[name])
              for name in sorted(test_hotpaths.CALLS)}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name, entries in golden.items():
        print(f"{name:24s} {len(entries)} cases")
        was = old.get(name, {})
        for key, value in entries.items():
            if was.get(key) != value:
                print(f"  changed {key}: {was.get(key)} -> {value}")
        for key in was.keys() - entries.keys():
            print(f"  removed {key}")
    for name in sorted(old.keys() - golden.keys()):
        print(f"{name:24s} removed with its {len(old[name])} cases")
        for key in old[name]:
            print(f"  removed {key}")


if __name__ == "__main__":
    print("tests/golden/cli/")
    freeze_cli()
    print("tests/golden/hotpaths.json")
    freeze_hotpaths()
