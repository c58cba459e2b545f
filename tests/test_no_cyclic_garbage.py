"""A run makes no cyclic garbage.

``Simulator.run`` dispatches with CPython's cyclic collector paused and
hands what survives to the oldest generation (DESIGN.md §11).  That is
sound only because no run leaves a reference cycle behind: paused
and promoted, a cycle would wait for a rare full collection.  Each cell
below is built and run while the test holds its target and workload;
two full collections afterwards must find nothing unreachable.  The
cells cover
every path that allocates per request: all-hit and all-miss NFS reads,
writes with remap and the flush daemon, a warm-started web server,
packet loss, a tiny NCache under pressure and a fleet node crash.
The integrity search (``tests/integrity_search.py``) checks the same
in every cell it passes.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

from integrity_search import Cell, collect_all, run
from repro.experiments import SWEEPS
from repro.experiments.common import run_cell
from repro.experiments.parallel import RunSpec


def cyclic_garbage(label: str) -> int:
    """Run the quick cell ``label`` holding its target and workload;
    the number of objects two full collections then find unreachable
    (a cycle whose generator's ``finally`` resurrects it for one
    collection is found by the second)."""
    sweep, _, name = label.partition("/")
    cell = SWEEPS[sweep].cell(name)
    held = []

    def workload(target):
        held.extend((target, cell.workload(target)))
        return held[-1]

    collect_all()
    run_cell(replace(cell, workload=workload), quick=True)
    return gc.collect() + gc.collect()


#: Quick cells, with the path each one runs.
CELLS = {
    "figure5/ncache/2nic/32768": "all-hit NFS reads (nfs_allhit)",
    "figure4/ncache/32768": "all-miss NFS reads over iSCSI (nfs_allmiss)",
    "figure7/ncache/30pct": "SPECsfs writes, remap, flush daemon",
    "figure6a/ncache/250mb": "warm-started kHTTPd over TCP",
    "ablation_loss/0.02/ncache": "2% datagram loss, retransmits",
    "fleet_churn/r2/g16/coop": "a cooperative fleet whose node 1 crashes",
}
#: The integrity search's ``pressure`` cell: 24 NCache chunks, 8 FS pages.
PRESSURE = Cell("pressure", "ncache", "lru", 1)

SPECS = [RunSpec(cyclic_garbage, (label,), f"cycles/{label}",
                 capture_reports=False) for label in CELLS]
SPECS.append(RunSpec(run, (PRESSURE,), f"cycles/{PRESSURE}",
                     capture_reports=False))


@pytest.mark.cells(*SPECS)
@pytest.mark.parametrize("label", CELLS)
def test_a_quick_cell_leaves_no_cyclic_garbage(cell_result, label):
    assert cell_result(f"cycles/{label}").value == 0, CELLS[label]


@pytest.mark.cells(*SPECS)
def test_the_pressure_cell_leaves_no_cyclic_garbage(cell_result):
    outcome = cell_result(f"cycles/{PRESSURE}").value
    assert outcome.verdict == "pass", outcome.detail
