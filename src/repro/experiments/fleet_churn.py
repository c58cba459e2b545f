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

from dataclasses import replace
from functools import partial
from operator import methodcaller
from typing import Dict, Iterator, List

from ..analysis.tables import ExperimentResult
from ..servers.spec import ChurnEvent, ChurnSchedule
from ..workloads.fleetzipf import FlashCrowd, HotKeyStorm
from .common import Cell, Cut, Sweep, per_kop, protocol
from .fleet_scaling import cluster_spec, zipf_population

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


def cells(quick: bool = True) -> List[Cell]:
    """Replication, cooperation and group size around the same outage:
    fleet_scaling's four-node cluster with a crash/rejoin schedule baked
    in, under its Zipf population with all three phase phenomena active —
    a hot-key storm during the outage (worst case for failover), a flash
    crowd during the cold node's warmup, and a slow diurnal drift across
    the whole run."""
    t = timeline(quick)
    seg = t["outage_end"] - t["pre_end"]
    churn = ChurnSchedule((ChurnEvent(t["pre_end"], "crash", CRASH_NODE),
                           ChurnEvent(t["outage_end"], "rejoin", CRASH_NODE)))
    load = zipf_population(
        quick,
        storm=HotKeyStorm(t["pre_end"], t["outage_end"], fraction=0.3),
        crowd=FlashCrowd(t["outage_end"], t["outage_end"] + seg,
                         think_scale=0.5),
        diurnal_period_s=2 * t["recovery_end"])
    points = [(1, True, 16), (2, True, 16), (2, False, 16), (2, True, 8)]
    if not quick:
        points += [(1, False, 16), (3, True, 16), (3, False, 16),
                   (2, False, 8)]
    return [Cell(
        label=f"r{repl}/g{group}/{'coop' if coop else 'solo'}",
        axes={"repl": repl, "coop": "on" if coop else "off", "group": group},
        spec=replace(cluster_spec(N_SERVERS, coop, repl, quick),
                     group_blocks=group, churn=churn),
        workload=load,
        cut=Cut(t["warm_end"],
                (("pre", t["pre_end"]), ("outage", t["outage_end"]),
                 ("recovery", t["recovery_end"])),
                methodcaller("backend_reads")),
        readout=partial(_readout,
                        measured_s=t["recovery_end"] - t["warm_end"]))
        for repl, coop, group in points]


def _readout(fleet, load, segments, measured_s: float) -> Dict[str, float]:
    stats = fleet.churn_stats()
    ops = sum(tb.meters.throughput.ops.value for tb in fleet.testbeds)
    return {
        "ops_per_s": ops / measured_s,
        "pre_bpk": per_kop(segments["pre"]),
        "outage_bpk": per_kop(segments["outage"]),
        "recovery_bpk": per_kop(segments["recovery"]),
        "failover": int(stats["failover_reroute"]),
        "retries": int(stats["inflight_retry"]),
        "warmup_ops": int(stats["warmup_ops"]),
        "ghost_hits": int(fleet.counter_sum("cache.ncache.ghost_hit")),
    }


def _notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    repl2 = result.value("outage_bpk", repl=2, coop="on", group=16)
    repl1 = result.value("outage_bpk", repl=1, coop="on", group=16)
    if repl1:
        saved = 100.0 * (repl1 - repl2) / repl1
        yield (f"outage: replication 2 keeps backend reads per 1000 ops "
               f"{saved:.1f}% below the no-replication baseline "
               f"({repl1:.0f} -> {repl2:.0f})")
    warm = result.value("warmup_ops", repl=2, coop="on", group=16)
    ghosts = result.value("ghost_hits", repl=2, coop="on", group=16)
    yield (f"cold restart: {warm:.0f} requests served while node "
           f"{CRASH_NODE} refilled; {ghosts:.0f} ghost hits flagged "
           f"re-misses on pre-crash residents")


SWEEP = Sweep(
    "fleet_churn", "Fleet churn: crash/failover/cold-restart under storm "
                   f"({N_SERVERS} servers, node {CRASH_NODE} crashes)",
    ("repl", "coop", "group", "ops_per_s", "pre_bpk", "outage_bpk",
     "recovery_bpk", "failover", "retries", "warmup_ops", "ghost_hits"),
    cells, notes=_notes)
