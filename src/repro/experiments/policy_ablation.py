"""Policy ablation: replacement policy on the NCache store.

The paper fixes replacement at classic LRU over fixed-size chunks (§3.4)
and never revisits the choice; NetCAS (arXiv:2510.02323) and the
in-network storage-cache study (arXiv:2307.11069) both show hit-ratio
behavior under real workloads is policy-sensitive.  With replacement now
a kernel parameter (DESIGN.md §9) this sweep measures what the paper
could not: every :data:`repro.cache.POLICIES` entry, on the two macro
workloads (SPECsfs-like NFS, SPECweb99-like kHTTPd), under
memory pressure (working sets larger than the carve-out, the Figure 6a
pressure regime).

Reported per cell: throughput, the store's hit ratio
(``cache.ncache.{hit,miss}``), the ghost-list hit share (the fraction of
misses a modestly larger cache would have absorbed —
``cache.ncache.ghost_hit``, plus the FS page cache's
``cache.bcache.ghost_hit`` where most re-misses actually land, since the
reclaim listener invalidates placeholder pages when their chunk is
evicted), and the physical-copy cost per operation
(``copies.physical_bytes``, the §3.1 currency).  ``lru`` is the
paper's configuration and doubles as the refactor's fidelity control:
its ``sim_events`` are identical to the pre-kernel code.
"""

from __future__ import annotations

from typing import List

from ..analysis.tables import ExperimentResult
from ..cache import POLICIES
from ..servers.config import GB, MB, ServerMode
from ..workloads.specsfs import SpecSfsWorkload
from ..workloads.specweb import SpecWebWorkload
from ..servers.spec import TestbedSpec
from .common import measure, scaled_memory_config
from .parallel import RunSpec, sweep

#: Every registered policy, in registry (insertion) order — LRU first.
POLICY_NAMES = tuple(POLICIES)
#: The two macro workloads of §5.4/§5.5.
WORKLOADS = ("specsfs", "specweb")

#: Memory-scale divisor for quick mode (same as Figure 6a).
QUICK_SCALE = 4
#: SPECweb working set (MB, full-scale) — Figure 6a's deepest point,
#: where the working set decisively outgrows the cache.
WEB_WORKING_SET_MB = 900


def measure_point(workload: str, policy: str,
                  quick: bool = True, reports: dict = None) -> dict:
    """One (workload, policy) cell of the ablation grid.

    When ``reports`` is given, the testbed's full metrics snapshot is
    stored there under ``"<workload>/<policy>"``.
    """
    scale = QUICK_SCALE if quick else 1
    overrides = scaled_memory_config(scale)
    overrides.update(cache_policy=policy)
    if workload == "specsfs":
        testbed = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=0.05,
                                  **overrides).build()
        fs_size = (GB // 2) if quick else 2 * GB
        wl = SpecSfsWorkload(testbed, pct_regular=0.75,
                             fs_size_bytes=fs_size,
                             outstanding_per_client=8)
        ranked = wl.names
    elif workload == "specweb":
        testbed = TestbedSpec.web(ServerMode.NCACHE, **overrides).build()
        wl = SpecWebWorkload(
            testbed,
            working_set_bytes=WEB_WORKING_SET_MB * MB // scale)
        ranked = wl.paths
    else:
        raise ValueError(f"unknown workload {workload!r}")
    measure(testbed, wl, quick, ranked=ranked, reports=reports,
            key=f"{workload}/{policy}")
    counters = testbed.server_host.counters
    hits = counters["cache.ncache.hit"].value
    misses = counters["cache.ncache.miss"].value
    ghost_hits = counters["cache.ncache.ghost_hit"].value
    probes = hits + misses
    fs_misses = counters["cache.bcache.miss"].value
    fs_ghost_hits = counters["cache.bcache.ghost_hit"].value
    ops = testbed.meters.throughput.ops.value
    phys_bytes = counters["copies.physical_bytes"].value
    return {
        "workload": workload,
        "policy": policy,
        "ops_per_sec": testbed.meters.throughput.ops_per_second(),
        "throughput_mbps": testbed.meters.throughput.mb_per_second(),
        "hit_pct": 100.0 * hits / probes if probes else 0.0,
        "ghost_hit_pct": 100.0 * ghost_hits / misses if misses else 0.0,
        "fs_ghost_pct": (100.0 * fs_ghost_hits / fs_misses
                         if fs_misses else 0.0),
        "copied_kb_per_op": phys_bytes / 1024.0 / ops if ops else 0.0,
    }


def grid(quick: bool = True) -> List[RunSpec]:
    """The sweep as independent, picklable grid points."""
    return [RunSpec(fn="repro.experiments.policy_ablation:measure_point",
                    args=(workload, policy, quick),
                    label=f"policy_ablation/{workload}/{policy}")
            for workload in WORKLOADS
            for policy in POLICY_NAMES]


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> ExperimentResult:
    """The full policy sweep on both macro workloads."""
    result = ExperimentResult(
        name="policy_ablation",
        title="Policy ablation: NCache replacement policy",
        columns=["workload", "policy", "ops_per_sec",
                 "throughput_mbps", "hit_pct", "ghost_hit_pct",
                 "fs_ghost_pct", "copied_kb_per_op"])
    sweep(grid(quick), workers, trace_sink, into=result)
    baseline = {r["workload"]: r for r in result.rows
                if r["policy"] == "lru"}
    for workload, base in sorted(baseline.items()):
        best = max((r for r in result.rows
                    if r["workload"] == workload),
                   key=lambda r: r["hit_pct"])
        result.add_note(
            f"{workload}: paper LRU hit {base['hit_pct']:.1f}% "
            f"({base['ops_per_sec']:.0f} ops/s); best "
            f"{best['policy']} hit "
            f"{best['hit_pct']:.1f}% ({best['ops_per_sec']:.0f} ops/s)")
    return result
