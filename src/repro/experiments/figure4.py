"""Figure 4: NFS all-miss workload — throughput and server CPU utilization.

Paper: sequential reads of a 2 GB file, request sizes 4–32 KB, three
server configurations.  Expected shape (§5.4):

* NFS-original is server-CPU bound (utilization pinned at 100%);
* NFS-NCache and NFS-baseline track each other and shift the bottleneck
  to the storage server ("the storage server's CPU remains saturated");
* for request sizes ≥16 KB the NCache improvement is 29–36%.
"""

from __future__ import annotations

from typing import List

from ..analysis.tables import ExperimentResult, pct_gain
from ..servers.config import ServerMode
from ..servers.spec import TestbedSpec
from ..workloads.microbench import SequentialReadWorkload
from .common import ALL_MODES, NFS_REQUEST_SIZES, measure
from .parallel import RunSpec, sweep

GB = 1 << 30


def measure_point(mode: ServerMode, request_size: int, quick: bool = True,
                  streams_per_client: int = 12,
                  reports: dict = None) -> dict:
    """One (mode, request size) cell of Figure 4.

    When ``reports`` is given, the testbed's full metrics snapshot is
    stored there under ``"<mode>/<request_size>"``.
    """
    file_size = (256 << 20) if quick else 2 * GB
    testbed = TestbedSpec.nfs(mode, n_daemons=24,
                              flush_interval_s=None).build()
    workload = SequentialReadWorkload(testbed, request_size,
                                      file_size=file_size,
                                      streams_per_client=streams_per_client)
    measure(testbed, workload, quick, reports=reports,
            key=f"{mode.value}/{request_size}")
    return {
        "mode": mode.label,
        "request_kb": request_size // 1024,
        "throughput_mbps": testbed.meters.throughput.mb_per_second(),
        "server_cpu_pct": testbed.server_cpu_utilization() * 100,
        "storage_cpu_pct": testbed.storage_cpu_utilization() * 100,
    }


def grid(quick: bool = True) -> List[RunSpec]:
    """The sweep as independent, picklable grid points."""
    return [RunSpec(fn="repro.experiments.figure4:measure_point",
                    args=(mode, request_size, quick),
                    label=f"figure4/{mode.value}/{request_size}")
            for mode in ALL_MODES
            for request_size in NFS_REQUEST_SIZES]


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> ExperimentResult:
    """The full Figure 4 sweep."""
    result = ExperimentResult(
        name="figure4",
        title="Figure 4: NFS all-miss — throughput (a) and CPU (b)",
        columns=["mode", "request_kb", "throughput_mbps",
                 "server_cpu_pct", "storage_cpu_pct"])
    sweep(grid(quick), workers, trace_sink, into=result)
    for request_kb in (16, 32):
        orig = result.value("throughput_mbps", mode="original",
                            request_kb=request_kb)
        ncache = result.value("throughput_mbps", mode="NCache",
                              request_kb=request_kb)
        result.add_note(
            f"{request_kb} KB: NCache vs original "
            f"{pct_gain(ncache, orig):+.1f}% (paper: +29% to +36%)")
    return result
