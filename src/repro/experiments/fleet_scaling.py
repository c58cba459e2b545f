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

from typing import List

from ..analysis.tables import ExperimentResult
from ..servers.config import ServerMode
from ..servers.spec import ClusterSpec, TestbedSpec
from ..workloads.fleetzipf import FleetZipfWorkload
from .common import (measure_segments, per_kop, protocol,
                     scaled_memory_config)
from .parallel import RunSpec, sweep

KB = 1024
MB = 1 << 20

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


def workload(quick: bool = True) -> FleetZipfWorkload:
    """The shared Zipf population workload (working set ≫ one node's
    cache, comparable to the fleet's aggregate budget)."""
    n_files = 192 if quick else 512
    return FleetZipfWorkload(
        n_files=n_files, file_size=128 * KB, request_size=32 * KB,
        zipf_alpha=0.9, n_logical_clients=1_000_000,
        n_streams=32, think_time_s=0.0005)


def measure_point(n_servers: int, cooperative: bool, replication: int = 1,
                  quick: bool = True, reports: dict = None) -> dict:
    """One (cluster size, cooperation, replication) cell."""
    proto = protocol(quick)
    fleet = cluster_spec(n_servers, cooperative, replication, quick).build()
    load = workload(quick).bind(fleet)
    # Double the standard warmup: the fleet must reach cache steady
    # state before backend reads are attributable to cooperation.
    window = measure_segments(
        fleet, load, 2 * proto.warmup_s, (("measure", proto.measure_s),),
        fleet.backend_reads, relative=True)["measure"]
    if reports is not None:
        key = f"n{n_servers}/r{replication}/" \
              f"{'coop' if cooperative else 'solo'}"
        reports[key] = fleet.metrics_snapshot()
    probes = fleet.counter_sum("fleet.peer_probe")
    hits = fleet.counter_sum("fleet.peer_hit")
    return {
        "n_servers": n_servers,
        "coop": "on" if cooperative else "off",
        "repl": replication,
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


def grid(quick: bool = True) -> List[RunSpec]:
    """The sweep as independent, picklable grid points."""
    points = [(1, False, 1), (4, True, 2), (4, False, 2),
              (8, True, 2), (8, False, 2)]
    if not quick:
        points += [(8, True, 3), (8, False, 3),
                   (16, True, 2), (16, False, 2)]
    return [RunSpec(fn="repro.experiments.fleet_scaling:measure_point",
                    args=(n, coop, repl, quick),
                    label=f"fleet_scaling/n{n}/r{repl}/"
                          f"{'coop' if coop else 'solo'}")
            for n, coop, repl in points]


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> ExperimentResult:
    """The full fleet-scaling sweep."""
    result = ExperimentResult(
        name="fleet_scaling",
        title="Fleet scaling: cooperative NCache vs. cluster size "
              "(equal aggregate cache budget)",
        columns=["n_servers", "coop", "repl", "throughput_mbps",
                 "ops_per_s", "imbalance", "peer_hit_pct", "peer_mb",
                 "backend_reads", "backend_per_kop"])
    sweep(grid(quick), workers, trace_sink, into=result)
    for n in (4, 8):
        coop = result.value("backend_per_kop", n_servers=n, coop="on",
                            repl=2)
        solo = result.value("backend_per_kop", n_servers=n, coop="off",
                            repl=2)
        saved = 100.0 * (solo - coop) / solo if solo else 0.0
        result.add_note(
            f"{n} servers: cooperation cuts backend reads per 1000 ops "
            f"by {saved:.1f}% ({solo:.0f} -> {coop:.0f})")
    return result
