"""The one way the tests run the command line: ``cli.main`` in-process.

``run_cli(*argv)`` calls ``cli.main(argv)`` with the terminal width pinned
to 80 columns (argparse wraps usage lines to it), turns a ``SystemExit``
into its exit code, and returns that code with what the command wrote to
stdout, to stderr and to the file named after ``--out``.  The fields are
named as in ``subprocess.CompletedProcess``.

A fresh interpreter is the subject of only a few tests: the start-up and
package tests, and ``test_cli``'s entry-point test, which checks that
``python -m ottobounds`` gives the exit code and the output of this runner.
"""

import contextlib
import io
import os
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from ottobounds import cli


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    written: bytes | None   # the bytes of the --out file, None without one


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    written = path.read_bytes() if path is not None and path.exists() else None
    return CliRun(code, out.getvalue(), err.getvalue(), written)
