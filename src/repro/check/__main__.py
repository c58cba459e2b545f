"""Entry point for ``python -m repro.check``."""

import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()
except BrokenPipeError:
    # The reader (``| head``) closed stdout early.  Point stdout at
    # devnull so the interpreter's exit-time flush cannot raise again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
raise SystemExit(code)
