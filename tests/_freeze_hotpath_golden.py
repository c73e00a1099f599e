"""Regenerate the bit-for-bit hot-path contract in ``tests/golden/hotpaths.json``.

    PYTHONPATH=src python3 tests/_freeze_hotpath_golden.py

For every function and input of ``tests/test_hotpaths.py`` it records the
``repr`` of the result, or the type and message of the raised exception,
and prints the key of each entry whose outcome differs from the file it
overwrites (or that the file lacks), and each function and key that the
file has and the new one drops.

Regenerate only in a change that deliberately alters a result or an error
text, and record in CHANGES.md which entries changed and why.  A refactor
must leave the file untouched: it exists to show that the results keep
their bits.
"""

import json

from test_hotpaths import CALLS, GOLDEN, cases, outcomes


def main():
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    arg_lists = cases()
    golden = {name: outcomes(name, arg_lists[name]) for name in sorted(CALLS)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
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
    main()
