"""Hash-order independence, observed rather than modelled.

DESIGN.md §7 claims simulated results depend on nothing the host can
reorder.  Worker count is covered by ``test_parallel_determinism.py``;
this file covers the other host-side ordering a run can leak — set and
dict-of-str iteration order, which ``PYTHONHASHSEED`` randomizes per
interpreter.  One fixed spec list (copy-count traces, an NFS throughput
point, a fleet crash/rejoin point) runs in two fresh interpreters with
different hash seeds and must produce byte-equal results.

Run as a script, this file prints the fingerprint the test compares::

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/test_hashseed_determinism.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.experiments import figure4, fleet_churn, table2
from repro.experiments.parallel import run_specs
from test_parallel_determinism import _comparable

REPO_ROOT = Path(__file__).resolve().parents[1]
HASH_SEEDS = ("1", "4242")


def fingerprint() -> str:
    """Everything simulated about the fixed spec list, as one JSON line."""
    specs = (table2.SWEEP.specs() + figure4.SWEEP.specs(quick=True)[:1]
             + fleet_churn.SWEEP.specs(quick=True)[:1])
    return _comparable(run_specs(specs, workers=1))


def test_results_identical_across_hash_seeds():
    procs = [subprocess.Popen(
        [sys.executable, __file__], stdout=subprocess.PIPE, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONHASHSEED": seed})
        for seed in HASH_SEEDS]
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert sum(r["sim_events"] for r in json.loads(outputs[0])) > 100_000
    assert outputs[0] == outputs[1]


if __name__ == "__main__":
    print(fingerprint())
