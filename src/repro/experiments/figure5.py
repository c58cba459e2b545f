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

from typing import List

from ..analysis.tables import ExperimentResult, pct_gain
from ..servers.config import ServerMode
from ..servers.spec import TestbedSpec
from ..workloads.microbench import AllHitReadWorkload
from .common import ALL_MODES, NFS_REQUEST_SIZES, measure
from .parallel import RunSpec, sweep


def measure_point(mode: ServerMode, request_size: int, n_nics: int,
                  quick: bool = True, streams_per_client: int = 6,
                  reports: dict = None) -> dict:
    """One (mode, request size, NIC count) cell of Figure 5.

    When ``reports`` is given, the testbed's full metrics snapshot is
    stored there under ``"<mode>/<nics>nic/<request_size>"``.
    """
    testbed = TestbedSpec.nfs(mode, n_server_nics=n_nics, n_daemons=8,
                              flush_interval_s=None).build()
    workload = AllHitReadWorkload(testbed, request_size,
                                  streams_per_client=streams_per_client)
    measure(testbed, workload, quick, reports=reports,
            key=f"{mode.value}/{n_nics}nic/{request_size}")
    return {
        "mode": mode.label,
        "nics": n_nics,
        "request_kb": request_size // 1024,
        "throughput_mbps": testbed.meters.throughput.mb_per_second(),
        "server_cpu_pct": testbed.server_cpu_utilization() * 100,
    }


def grid(quick: bool = True) -> List[RunSpec]:
    """The sweep as independent, picklable grid points."""
    return [RunSpec(fn="repro.experiments.figure5:measure_point",
                    args=(mode, request_size, n_nics, quick),
                    label=f"figure5/{mode.value}/{n_nics}nic/{request_size}")
            for n_nics in (1, 2)
            for mode in ALL_MODES
            for request_size in NFS_REQUEST_SIZES]


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> ExperimentResult:
    """The full Figure 5 sweep, both panels."""
    result = ExperimentResult(
        name="figure5",
        title="Figure 5: NFS all-hit — CPU with 1 NIC (a), "
              "throughput with 2 NICs (b)",
        columns=["mode", "nics", "request_kb", "throughput_mbps",
                 "server_cpu_pct"])
    sweep(grid(quick), workers, trace_sink, into=result)
    orig = result.value("throughput_mbps", mode="original", nics=2,
                        request_kb=32)
    ncache = result.value("throughput_mbps", mode="NCache", nics=2,
                          request_kb=32)
    base = result.value("throughput_mbps", mode="baseline", nics=2,
                        request_kb=32)
    result.add_note(f"32 KB, 2 NICs: NCache {pct_gain(ncache, orig):+.1f}% "
                    f"(paper: +92%), baseline {pct_gain(base, orig):+.1f}% "
                    f"(paper: up to +143%)")
    orig_cpu = result.value("server_cpu_pct", mode="original", nics=1,
                            request_kb=32)
    nc_cpu = result.value("server_cpu_pct", mode="NCache", nics=1,
                          request_kb=32)
    result.add_note(f"32 KB, 1 NIC: CPU saving NCache vs original "
                    f"{orig_cpu - nc_cpu:.1f} points at link-bound "
                    f"throughput (paper: up to 42-52)")
    return result
