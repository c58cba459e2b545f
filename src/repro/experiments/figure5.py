"""Figure 5: NFS all-hit workload — CPU (1 NIC) and throughput (2 NICs).

Paper (§5.4): repeated reads of a 5 MB file, everything served from the
server's cache.

* (a) one NIC: the link is the bottleneck; NFS-original's CPU still
  saturates while NCache/baseline CPU falls with request size (up to
  42%/49% lower at <32 KB).
* (b) two NICs: the CPU is the bottleneck; at 32 KB NFS-NCache beats
  NFS-original by 92% and NFS-baseline by up to 143%.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List

from ..analysis.tables import ExperimentResult, pct_gain
from ..servers.spec import TestbedSpec
from ..workloads.microbench import AllHitReadWorkload
from .common import (ALL_MODES, NFS_REQUEST_SIZES, Cell, Sweep, ncache_gain,
                     read)


def cells(quick: bool = True) -> List[Cell]:
    """Both panels, every (NIC count, mode, request size) cell: eight
    daemons, six random-read streams per client over the prewarmed 5 MB
    file."""
    return [Cell(
        label=f"{mode.value}/{n_nics}nic/{request_size}",
        axes={"mode": mode.label, "nics": n_nics,
              "request_kb": request_size // 1024},
        spec=TestbedSpec.nfs(mode, n_server_nics=n_nics, n_daemons=8,
                             flush_interval_s=None),
        workload=partial(AllHitReadWorkload, request_size=request_size,
                         streams_per_client=6),
        readout=partial(read, columns=("throughput_mbps", "server_cpu_pct")))
        for n_nics in (1, 2)
        for mode in ALL_MODES
        for request_size in NFS_REQUEST_SIZES]


def _notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    ncache = ncache_gain(result, "throughput_mbps", nics=2, request_kb=32)
    base = pct_gain(
        result.value("throughput_mbps", mode="baseline", nics=2,
                     request_kb=32),
        result.value("throughput_mbps", mode="original", nics=2,
                     request_kb=32))
    yield (f"32 KB, 2 NICs: NCache {ncache:+.1f}% "
           f"(paper: +92%), baseline {base:+.1f}% "
           f"(paper: up to +143%)")
    orig_cpu = result.value("server_cpu_pct", mode="original", nics=1,
                            request_kb=32)
    nc_cpu = result.value("server_cpu_pct", mode="NCache", nics=1,
                          request_kb=32)
    yield (f"32 KB, 1 NIC: CPU saving NCache vs original "
           f"{orig_cpu - nc_cpu:.1f} points at link-bound "
           f"throughput (paper: up to 42-52)")


SWEEP = Sweep(
    "figure5", "Figure 5: NFS all-hit — CPU with 1 NIC (a), "
               "throughput with 2 NICs (b)",
    ("mode", "nics", "request_kb", "throughput_mbps", "server_cpu_pct"),
    cells, notes=_notes)
