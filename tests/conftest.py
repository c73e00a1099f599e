"""Put ``src`` on the PYTHONPATH of every interpreter a test starts.

pyproject's ``pythonpath = ["src"]`` lets pytest itself import the package
without an install; the CLI and start-up tests run ``python -m ottobounds``
and ``python -c`` in child processes, which see only the environment.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
