"""Figure 7: SPECsfs-like macro-benchmark — ops/s vs % regular-data ops.

Paper (§5.4): 2 GB filesystem, accessed file set 10% of it, read:write
held at 5:1.  NFS-NCache sustains 16.3% more ops/s than NFS-original when
30% of requests access regular data, 18.6% more at 75%; the gain grows
with the regular-data fraction because NCache does not help metadata or
small-request processing, which dominate SPECsfs.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List

from ..analysis.tables import ExperimentResult
from ..servers.config import GB
from ..servers.spec import TestbedSpec
from ..workloads.specsfs import SpecSfsWorkload
from .common import ALL_MODES, Cell, Sweep, ncache_gain, read

#: The regular-data percentages swept (paper quotes 30% and 75%).
REGULAR_PERCENTAGES = (30, 45, 60, 75)


def cells(quick: bool = True) -> List[Cell]:
    """Every (mode, regular-data %) cell: the SPECsfs mix, warm-started,
    flushing every 50 ms."""
    fs_size = (GB // 2) if quick else 2 * GB
    return [Cell(
        label=f"{mode.value}/{pct}pct",
        axes={"mode": mode.label, "pct_regular": pct},
        spec=TestbedSpec.nfs(mode, flush_interval_s=0.05),
        workload=partial(SpecSfsWorkload, pct_regular=pct / 100.0,
                         fs_size_bytes=fs_size, outstanding_per_client=8),
        ranked="names",
        before_load=_small_flush_passes,
        readout=partial(read, columns=("ops_per_sec", "throughput_mbps",
                                       "server_cpu_pct")))
        for mode in ALL_MODES
        for pct in REGULAR_PERCENTAGES]


def _small_flush_passes(testbed) -> None:
    # The daemon reads the cap per pass, and nothing is dirty before the
    # load starts.
    testbed.flush_daemon.max_blocks_per_pass = 16


def _notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    for pct, paper in ((30, 16.3), (75, 18.6)):
        gain = ncache_gain(result, "ops_per_sec", pct_regular=pct)
        yield (f"{pct}% regular: NCache vs original {gain:+.1f}% "
               f"(paper: +{paper}%)")


SWEEP = Sweep(
    "figure7", "Figure 7: SPECsfs-like ops/s vs % regular-data requests",
    ("mode", "pct_regular", "ops_per_sec", "throughput_mbps",
     "server_cpu_pct"),
    cells, notes=_notes)
