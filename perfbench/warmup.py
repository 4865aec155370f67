#!/usr/bin/env python3
"""Set-up probe: start the interpreter, import the CLI and run one small op.

``run.py`` times this script in a child process several times and reports
the median as ``setup_s``: what a user waits for before the first answer of
an ``ldpcopt`` command, less the work of the command itself.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ldpcopt.cli import main  # noqa: E402

# A small SDP: touches the SOS builders, the solver and the certificate check.
WARMUP_ARGV = ["threshold", "--lambda", '{"3": 1.0}', "--rho", '{"6": 1.0}',
               "--method", "sdp"]


def warm_up() -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(WARMUP_ARGV)


if __name__ == "__main__":
    sys.exit(warm_up())
