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

from dataclasses import replace
from typing import Dict, Iterator, List

from ..analysis.tables import ExperimentResult
from ..cache import POLICIES
from . import figure6, figure7
from .common import Cell, Sweep, read, scaled_memory_config, variant

#: Every registered policy, in registry (insertion) order — LRU first.
POLICY_NAMES = tuple(POLICIES)
#: The two macro workloads of §5.4/§5.5.
WORKLOADS = ("specsfs", "specweb")


def cells(quick: bool = True) -> List[Cell]:
    """Every policy on both macro workloads, under memory pressure:
    Figure 7's 75% NCache cell (flushed at the daemon's own pass size)
    and Figure 6(a)'s deepest NCache cell — the working set that
    decisively outgrows the cache — both on Figure 6(a)'s memory."""
    memory = scaled_memory_config(figure6.QUICK_SCALE if quick else 1)
    bases = {
        "specsfs": replace(figure7.SWEEP.cell("ncache/75pct", quick),
                           before_load=None, readout=_readout),
        "specweb": replace(figure6.SWEEP_A.cell("ncache/900mb", quick),
                           readout=_readout)}
    return [variant(bases[workload], f"{workload}/{policy}",
                    {"workload": workload, "policy": policy},
                    cache_policy=policy, **memory)
            for workload in WORKLOADS
            for policy in POLICY_NAMES]


def _readout(testbed, workload) -> Dict[str, float]:
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
        **read(testbed, workload, ("ops_per_sec", "throughput_mbps")),
        "hit_pct": 100.0 * hits / probes if probes else 0.0,
        "ghost_hit_pct": 100.0 * ghost_hits / misses if misses else 0.0,
        "fs_ghost_pct": (100.0 * fs_ghost_hits / fs_misses
                         if fs_misses else 0.0),
        "copied_kb_per_op": phys_bytes / 1024.0 / ops if ops else 0.0,
    }


def _notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    baseline = {r["workload"]: r for r in result.rows
                if r["policy"] == "lru"}
    for workload, base in sorted(baseline.items()):
        best = max((r for r in result.rows
                    if r["workload"] == workload),
                   key=lambda r: r["hit_pct"])
        yield (f"{workload}: paper LRU hit {base['hit_pct']:.1f}% "
               f"({base['ops_per_sec']:.0f} ops/s); best "
               f"{best['policy']} hit "
               f"{best['hit_pct']:.1f}% ({best['ops_per_sec']:.0f} ops/s)")


SWEEP = Sweep(
    "policy_ablation", "Policy ablation: NCache replacement policy",
    ("workload", "policy", "ops_per_sec", "throughput_mbps", "hit_pct",
     "ghost_hit_pct", "fs_ghost_pct", "copied_kb_per_op"),
    cells, notes=_notes)
