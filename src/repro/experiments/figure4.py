"""Figure 4: NFS all-miss workload — throughput and server CPU utilization.

Paper: sequential reads of a 2 GB file, request sizes 4–32 KB, three
server configurations.  Expected shape (§5.4):

* NFS-original is server-CPU bound (utilization pinned at 100%);
* NFS-NCache and NFS-baseline track each other and shift the bottleneck
  to the storage server ("the storage server's CPU remains saturated");
* for request sizes ≥16 KB the NCache improvement is 29–36%.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List

from ..analysis.tables import ExperimentResult
from ..servers.config import GB, MB
from ..servers.spec import TestbedSpec
from ..workloads.microbench import SequentialReadWorkload
from .common import (ALL_MODES, NFS_REQUEST_SIZES, Cell, Sweep, ncache_gain,
                     read)


def cells(quick: bool = True) -> List[Cell]:
    """Every (mode, request size) cell: 24 daemons, 12 sequential
    streams per client over files no cache holds."""
    file_size = 256 * MB if quick else 2 * GB
    return [Cell(
        label=f"{mode.value}/{request_size}",
        axes={"mode": mode.label, "request_kb": request_size // 1024},
        spec=TestbedSpec.nfs(mode, n_daemons=24, flush_interval_s=None),
        workload=partial(SequentialReadWorkload, request_size=request_size,
                         file_size=file_size, streams_per_client=12),
        readout=partial(read, columns=("throughput_mbps", "server_cpu_pct",
                                       "storage_cpu_pct")))
        for mode in ALL_MODES
        for request_size in NFS_REQUEST_SIZES]


def _notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    for kb in (16, 32):
        gain = ncache_gain(result, "throughput_mbps", request_kb=kb)
        yield (f"{kb} KB: NCache vs original {gain:+.1f}% "
               f"(paper: +29% to +36%)")


SWEEP = Sweep(
    "figure4", "Figure 4: NFS all-miss — throughput (a) and CPU (b)",
    ("mode", "request_kb", "throughput_mbps", "server_cpu_pct",
     "storage_cpu_pct"),
    cells, notes=_notes)
