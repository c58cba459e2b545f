"""Fleet churn: crash, failover and cold-restart warmup (beyond the paper).

:mod:`~repro.experiments.fleet_scaling` measures the static fleet; this
experiment measures the *dynamic* one.  A four-node cooperative fleet
runs the Zipf population workload with a hot-key storm, a flash crowd
and a slow diurnal drift layered on, and a declarative
:class:`~repro.servers.spec.ChurnSchedule` crashes one node mid-run and
rejoins it cold one segment later.  The run is split into three measured
segments:

* **pre** — steady state before the outage;
* **outage** — the crashed node is dark: its share of the keyspace
  fails over to the salted replica set (or, without replication, to
  whatever live node the ring walk reaches), and cooperative caching
  absorbs what it can of the miss storm;
* **recovery** — the node is back with a cold cache, warming up under a
  flash crowd; ``fleet.warmup_ops`` and the store's ghost-hit estimator
  measure the refill.

The question each row answers: how far do replication and cooperation
keep backend iSCSI reads during the outage below the no-replication
baseline, and what does the cold restart cost on the way back up?
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.tables import ExperimentResult
from ..servers.config import ServerMode
from ..servers.spec import ChurnEvent, ChurnSchedule, ClusterSpec, TestbedSpec
from ..workloads.fleetzipf import FlashCrowd, FleetZipfWorkload, HotKeyStorm
from .common import (measure_segments, per_kop, protocol,
                     scaled_memory_config)
from .fleet_scaling import BASE_SCALE
from .parallel import RunSpec, sweep

KB = 1024

#: Cluster size for every point; the churn story needs surviving nodes,
#: not scale (fleet_scaling owns the scale axis).
N_SERVERS = 4

#: The node the schedule crashes and rejoins.
CRASH_NODE = 1


def timeline(quick: bool = True) -> Dict[str, float]:
    """Absolute segment boundaries shared by the schedule, the workload
    phases and the measurement windows."""
    proto = protocol(quick)
    seg = proto.measure_s
    warm_end = 2 * proto.warmup_s
    pre_end = warm_end + seg
    outage_end = pre_end + seg
    return {
        "warm_end": warm_end,
        "pre_end": pre_end,          # crash fires here
        "outage_end": outage_end,    # rejoin fires here
        "recovery_end": outage_end + 2 * seg,
    }


def cluster_spec(replication: int, cooperative: bool, group_blocks: int,
                 quick: bool = True) -> ClusterSpec:
    """Four NCache nodes with a crash/rejoin schedule baked in."""
    t = timeline(quick)
    memory = scaled_memory_config(BASE_SCALE * N_SERVERS)
    return ClusterSpec(
        testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                **memory),
        n_servers=N_SERVERS,
        replication=replication,
        cooperative=cooperative,
        group_blocks=group_blocks,
        churn=ChurnSchedule((
            ChurnEvent(t["pre_end"], "crash", CRASH_NODE),
            ChurnEvent(t["outage_end"], "rejoin", CRASH_NODE),
        )))


def workload(quick: bool = True) -> FleetZipfWorkload:
    """The Zipf population with all three phase phenomena active:
    a hot-key storm during the outage (worst case for failover), a
    flash crowd during the cold node's warmup, and a slow diurnal
    drift across the whole run."""
    t = timeline(quick)
    seg = t["outage_end"] - t["pre_end"]
    n_files = 192 if quick else 512
    return FleetZipfWorkload(
        n_files=n_files, file_size=128 * KB, request_size=32 * KB,
        zipf_alpha=0.9, n_logical_clients=1_000_000,
        n_streams=32, think_time_s=0.0005,
        storm=HotKeyStorm(t["pre_end"], t["outage_end"], fraction=0.3),
        crowd=FlashCrowd(t["outage_end"], t["outage_end"] + seg,
                         think_scale=0.5),
        diurnal_period_s=2 * t["recovery_end"])


def measure_point(replication: int, cooperative: bool,
                  group_blocks: int, quick: bool = True,
                  reports: dict = None) -> dict:
    """One (replication, cooperation, group size) churn run."""
    t = timeline(quick)
    fleet = cluster_spec(replication, cooperative, group_blocks,
                         quick).build()
    load = workload(quick).bind(fleet)
    segments = measure_segments(
        fleet, load, t["warm_end"],
        (("pre", t["pre_end"]), ("outage", t["outage_end"]),
         ("recovery", t["recovery_end"])),
        fleet.backend_reads)

    if reports is not None:
        key = f"r{replication}/g{group_blocks}/" \
              f"{'coop' if cooperative else 'solo'}"
        snapshot = fleet.metrics_snapshot()
        snapshot["churn"] = fleet.churn_stats()
        snapshot["segments"] = segments
        reports[key] = snapshot

    stats = fleet.churn_stats()
    measured_s = t["recovery_end"] - t["warm_end"]
    ops = sum(tb.meters.throughput.ops.value for tb in fleet.testbeds)
    return {
        "repl": replication,
        "coop": "on" if cooperative else "off",
        "group": group_blocks,
        "ops_per_s": ops / measured_s,
        "pre_bpk": per_kop(segments["pre"]),
        "outage_bpk": per_kop(segments["outage"]),
        "recovery_bpk": per_kop(segments["recovery"]),
        "failover": int(stats["failover_reroute"]),
        "retries": int(stats["inflight_retry"]),
        "warmup_ops": int(stats["warmup_ops"]),
        "ghost_hits": int(fleet.counter_sum("cache.ncache.ghost_hit")),
    }


def grid(quick: bool = True) -> List[RunSpec]:
    """The sweep as independent, picklable grid points."""
    points = [(1, True, 16), (2, True, 16), (2, False, 16), (2, True, 8)]
    if not quick:
        points += [(1, False, 16), (3, True, 16), (3, False, 16),
                   (2, False, 8)]
    return [RunSpec(fn="repro.experiments.fleet_churn:measure_point",
                    args=(repl, coop, group, quick),
                    label=f"fleet_churn/r{repl}/g{group}/"
                          f"{'coop' if coop else 'solo'}")
            for repl, coop, group in points]


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> ExperimentResult:
    """The full churn sweep."""
    result = ExperimentResult(
        name="fleet_churn",
        title="Fleet churn: crash/failover/cold-restart under storm "
              f"({N_SERVERS} servers, node {CRASH_NODE} crashes)",
        columns=["repl", "coop", "group", "ops_per_s", "pre_bpk",
                 "outage_bpk", "recovery_bpk", "failover", "retries",
                 "warmup_ops", "ghost_hits"])
    sweep(grid(quick), workers, trace_sink, into=result)
    repl2 = result.value("outage_bpk", repl=2, coop="on", group=16)
    repl1 = result.value("outage_bpk", repl=1, coop="on", group=16)
    if repl1:
        saved = 100.0 * (repl1 - repl2) / repl1
        result.add_note(
            f"outage: replication 2 keeps backend reads per 1000 ops "
            f"{saved:.1f}% below the no-replication baseline "
            f"({repl1:.0f} -> {repl2:.0f})")
    warm = result.value("warmup_ops", repl=2, coop="on", group=16)
    ghosts = result.value("ghost_hits", repl=2, coop="on", group=16)
    result.add_note(
        f"cold restart: {warm:.0f} requests served while node "
        f"{CRASH_NODE} refilled; {ghosts:.0f} ghost hits flagged "
        f"re-misses on pre-crash residents")
    return result
