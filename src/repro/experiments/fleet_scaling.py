"""Fleet scaling: cooperative NCache across a cluster (beyond the paper).

The paper evaluates one server; this experiment scales the NCache
organization out to an N-server fleet behind a consistent-hash load
balancer (:mod:`repro.fleet`) and asks the question the single-node
testbed cannot: at a *fixed aggregate cache budget*, does letting the
nodes serve each other's misses out of their network-centric caches
reduce reads against the shared iSCSI backend?

Every point drives the same Zipf-skewed population workload
(:class:`~repro.workloads.fleetzipf.FleetZipfWorkload`) and reports

* aggregate throughput and operation rate across the fleet;
* load imbalance (max/mean of per-node routed requests);
* the cooperative-caching peer traffic (probe hit rate, bytes moved);
* backend iSCSI reads during the measurement window.

Per-node memory shrinks as ``1/n_servers`` so the *aggregate* budget is
identical across cluster sizes — any backend-read reduction is due to
cooperation, not extra RAM.
"""

from __future__ import annotations

from functools import partial
from operator import methodcaller
from typing import Any, Dict, Iterator, List

from ..analysis.tables import ExperimentResult
from ..servers.config import MB, ServerMode
from ..servers.spec import ClusterSpec, TestbedSpec
from ..workloads.fleetzipf import FleetZipfWorkload
from .common import (Cell, Cut, Sweep, per_kop, protocol,
                     scaled_memory_config)

KB = 1024

#: Aggregate memory budget = the standard testbed scaled by this factor,
#: split evenly across the fleet (per-node scale = BASE_SCALE * n).
BASE_SCALE = 32

#: Consistent-hash granularity: contiguous LBN runs routed as one unit.
GROUP_BLOCKS = 16


def cluster_spec(n_servers: int, cooperative: bool, replication: int,
                 quick: bool = True) -> ClusterSpec:
    """The cluster under test, at equal aggregate cache budget."""
    memory = scaled_memory_config(BASE_SCALE * n_servers)
    return ClusterSpec(
        testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                **memory),
        n_servers=n_servers,
        replication=replication,
        cooperative=cooperative,
        group_blocks=GROUP_BLOCKS)


def zipf_population(quick: bool = True, **phases: Any) -> partial:
    """The shared Zipf population workload (working set ≫ one node's
    cache, comparable to the fleet's aggregate budget), unbound;
    ``phases`` layers storms, crowds and drift on it."""
    return partial(
        FleetZipfWorkload,
        n_files=192 if quick else 512, file_size=128 * KB,
        request_size=32 * KB, zipf_alpha=0.9, n_logical_clients=1_000_000,
        n_streams=32, think_time_s=0.0005, **phases)


def cells(quick: bool = True) -> List[Cell]:
    """The cluster sizes swept, with and without cooperation."""
    proto = protocol(quick)
    points = [(1, False, 1), (4, True, 2), (4, False, 2),
              (8, True, 2), (8, False, 2)]
    if not quick:
        points += [(8, True, 3), (8, False, 3),
                   (16, True, 2), (16, False, 2)]
    return [Cell(
        label=f"n{n}/r{repl}/{'coop' if coop else 'solo'}",
        axes={"n_servers": n, "coop": "on" if coop else "off", "repl": repl},
        spec=cluster_spec(n, coop, repl, quick),
        workload=zipf_population(quick),
        # Double the standard warmup: the fleet must reach cache steady
        # state before backend reads are attributable to cooperation.
        cut=Cut(2 * proto.warmup_s, (("measure", proto.measure_s),),
                methodcaller("backend_reads"), relative=True),
        readout=_readout)
        for n, coop, repl in points]


def _readout(fleet, load, segments) -> Dict[str, float]:
    window = segments["measure"]
    probes = fleet.counter_sum("fleet.peer_probe")
    hits = fleet.counter_sum("fleet.peer_hit")
    return {
        "throughput_mbps": sum(tb.meters.throughput.mb_per_second()
                               for tb in fleet.testbeds),
        "ops_per_s": sum(tb.meters.throughput.ops_per_second()
                         for tb in fleet.testbeds),
        "imbalance": fleet.imbalance(),
        "peer_hit_pct": 100.0 * hits / probes if probes else 0.0,
        "peer_mb": fleet.counter_sum("fleet.peer_bytes") / MB,
        "backend_reads": int(window["backend"]),
        # Closed-loop normalization: cooperation speeds the fleet up, so
        # raw backend counts understate the saving per unit of work.
        "backend_per_kop": per_kop(window),
    }


def _notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    for n in (4, 8):
        coop = result.value("backend_per_kop", n_servers=n, coop="on",
                            repl=2)
        solo = result.value("backend_per_kop", n_servers=n, coop="off",
                            repl=2)
        saved = 100.0 * (solo - coop) / solo if solo else 0.0
        yield (f"{n} servers: cooperation cuts backend reads per 1000 ops "
               f"by {saved:.1f}% ({solo:.0f} -> {coop:.0f})")


SWEEP = Sweep(
    "fleet_scaling", "Fleet scaling: cooperative NCache vs. cluster size "
                     "(equal aggregate cache budget)",
    ("n_servers", "coop", "repl", "throughput_mbps", "ops_per_s",
     "imbalance", "peer_hit_pct", "peer_mb", "backend_reads",
     "backend_per_kop"),
    cells, notes=_notes)
