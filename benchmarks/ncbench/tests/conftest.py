"""Path set-up for the ncbench self-tests.

Run with ``python -m pytest benchmarks/ncbench/tests``; the tier-1 suite
(``testpaths = ["tests"]``) never collects this directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

NCBENCH = Path(__file__).resolve().parents[1]
REPO = NCBENCH.parents[1]
for entry in (str(REPO / "src"), str(NCBENCH.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


@pytest.fixture(scope="session")
def run_module():
    """``run.py`` imported as a module (it is a script, not in the package)."""
    spec = importlib.util.spec_from_file_location("ncbench_run",
                                                  NCBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
