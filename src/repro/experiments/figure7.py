"""Figure 7: SPECsfs-like macro-benchmark — ops/s vs % regular-data ops.

Paper (§5.4): 2 GB filesystem, accessed file set 10% of it, read:write
held at 5:1.  NFS-NCache sustains 16.3% more ops/s than NFS-original when
30% of requests access regular data, 18.6% more at 75%; the gain grows
with the regular-data fraction because NCache does not help metadata or
small-request processing, which dominate SPECsfs.
"""

from __future__ import annotations

from typing import List

from ..analysis.tables import ExperimentResult, pct_gain
from ..servers.config import ServerMode
from ..servers.spec import TestbedSpec
from ..workloads.specsfs import SpecSfsWorkload
from .common import ALL_MODES, measure
from .parallel import RunSpec, sweep

GB = 1 << 30

#: The regular-data percentages swept (paper quotes 30% and 75%).
REGULAR_PERCENTAGES = (30, 45, 60, 75)


def measure_point(mode: ServerMode, pct_regular: int,
                  quick: bool = True, reports: dict = None) -> dict:
    """One (mode, regular-data %) cell of Figure 7.

    When ``reports`` is given, the testbed's full metrics snapshot is
    stored there under ``"<mode>/<pct_regular>pct"``.
    """
    fs_size = (GB // 2) if quick else 2 * GB
    testbed = TestbedSpec.nfs(mode, flush_interval_s=0.05).build()
    testbed.flush_daemon.max_blocks_per_pass = 16
    workload = SpecSfsWorkload(testbed, pct_regular=pct_regular / 100.0,
                               fs_size_bytes=fs_size,
                               outstanding_per_client=8)
    measure(testbed, workload, quick, ranked=workload.names,
            reports=reports, key=f"{mode.value}/{pct_regular}pct")
    return {
        "mode": mode.label,
        "pct_regular": pct_regular,
        "ops_per_sec": testbed.meters.throughput.ops_per_second(),
        "throughput_mbps": testbed.meters.throughput.mb_per_second(),
        "server_cpu_pct": testbed.server_cpu_utilization() * 100,
    }


def grid(quick: bool = True) -> List[RunSpec]:
    """The sweep as independent, picklable grid points."""
    return [RunSpec(fn="repro.experiments.figure7:measure_point",
                    args=(mode, pct, quick),
                    label=f"figure7/{mode.value}/{pct}pct")
            for mode in ALL_MODES
            for pct in REGULAR_PERCENTAGES]


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> ExperimentResult:
    """The full Figure 7 sweep."""
    result = ExperimentResult(
        name="figure7",
        title="Figure 7: SPECsfs-like ops/s vs % regular-data requests",
        columns=["mode", "pct_regular", "ops_per_sec", "throughput_mbps",
                 "server_cpu_pct"])
    sweep(grid(quick), workers, trace_sink, into=result)
    for pct, paper in ((30, 16.3), (75, 18.6)):
        orig = result.value("ops_per_sec", mode="original", pct_regular=pct)
        ncache = result.value("ops_per_sec", mode="NCache", pct_regular=pct)
        result.add_note(f"{pct}% regular: NCache vs original "
                        f"{pct_gain(ncache, orig):+.1f}% "
                        f"(paper: +{paper}%)")
    return result
