"""`python -m ottobounds ARG...` under the span tracer.

Usage: python3 bench/cli_child.py SPANS.json ARG...

Runs the package's ``__main__`` exactly as ``-m`` would, with every layer
traced from the first import on, then writes the spans, the counters and
whether numpy was imported to SPANS.json and exits with the command's
exit code.  The parent sets PYTHONPATH to the checkout's ``src``.
"""

import importlib
import json
import runpy
import sys

from spans import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    sys.argv = ["ottobounds", *argv]
    code = 0
    try:
        tracer.span("init.import", importlib.import_module, "ottobounds")
        runpy.run_module("ottobounds", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        data = tracer.dump()
        data["numpy_loaded"] = "numpy" in sys.modules
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
