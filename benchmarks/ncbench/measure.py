"""The timed run: set-up, calibrated slices, and the metrics read from them.

Two kinds of number are kept apart.  *Simulated* metrics are read from
the model's own public meters and ``metrics_snapshot()`` at the end of
the window; the simulator is deterministic, so they repeat exactly for
one ``(workload, seed)``.  *Host* metrics come from wall-clock per slice
divided by the yardstick (:mod:`ncbench.calib`) read during that slice.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.servers.config import MB, ServerMode
from repro.sim.engine import dispatch_count

from .calib import CU_REF_S, Yardstick
from .plan import WorkloadPlan


def testbeds_of(target: Any) -> List[Any]:
    """A fleet's testbeds, or the one testbed itself."""
    return list(getattr(target, "testbeds", None) or [target])


class ExactLatency:
    """Keeps every request latency of the window.

    Installed in place of each testbed's ``meters.latency`` (a public
    attribute the workloads record through): the stock object answers
    percentiles from a 1024-sample reservoir, the registry histogram from
    1.6%-wide buckets, and the benchmark wants the exact order
    statistics of all samples.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, sample: float) -> None:
        self.samples.append(sample)

    def reset(self) -> None:
        self.samples.clear()

    def percentile_us(self, fraction: float) -> float:
        ordered = sorted(self.samples)
        return 1e6 * ordered[min(len(ordered) - 1,
                                 int(fraction * len(ordered)))]


def install_latency(target: Any) -> ExactLatency:
    latency = ExactLatency()
    for testbed in testbeds_of(target):
        testbed.meters.latency = latency
    return latency


def completed(target: Any) -> Tuple[int, int]:
    """``(ops, bytes)`` completed since the last meter reset."""
    ops = nbytes = 0
    for testbed in testbeds_of(target):
        ops += int(testbed.meters.throughput.ops.value)
        nbytes += int(testbed.meters.throughput.bytes.value)
    return ops, nbytes


def lifetime_counts(target: Any) -> Dict[str, int]:
    """Counters the model keeps as lifetime totals (diff two calls)."""
    reads = retransmits = 0
    for testbed in testbeds_of(target):
        reads += testbed.target.reads_served
        retransmits += sum(c.retransmissions
                           for c in getattr(testbed, "clients", ()))
    return {"backend_reads": reads, "nfs_retransmits": retransmits}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

#: Yardstick passes before and after a set-up (~3 ms each).
SETUP_PASSES = 50


@dataclass
class Setup:
    target: Any
    load: Any
    latency: ExactLatency
    raw_s: float
    #: seconds at reference speed: raw x reference / adjacent calibration.
    ref_s: float


def set_up(plan: WorkloadPlan, seed: int, yardstick: Yardstick,
           mode: ServerMode = ServerMode.NCACHE) -> Setup:
    """Build, bind, log in, warm-start and warm up; timed as ``setup_s``.

    Set-up cannot be interleaved with the yardstick, so the yardstick is
    read for ~0.15 s on either side: long enough to average over the
    host's fast speed changes, which one short pass would just sample.
    """
    before = yardstick.read(passes=SETUP_PASSES)
    t0 = time.perf_counter()
    target, load = plan.build(seed, mode)
    raw = time.perf_counter() - t0
    cu_s = (before + yardstick.read(passes=SETUP_PASSES)) / 2
    return Setup(target, load, install_latency(target), raw,
                 raw * CU_REF_S / cu_s)


def discard(setup: Setup) -> None:
    """Drop a testbed (its object graph is cyclic) before the next one."""
    setup.target = setup.load = None
    gc.collect()


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

#: Steps (with a yardstick pass after each) one slice is advanced in.
STEPS_PER_SLICE = 16


@dataclass
class SliceRun:
    #: cumulative (ops, engine dispatches) at each slice boundary.
    boundaries: List[Tuple[int, int]] = field(default_factory=list)
    host_s: List[float] = field(default_factory=list)
    #: one cu in seconds during each slice (the mean of the yardstick
    #: passes interleaved with it).
    calib: List[float] = field(default_factory=list)
    window_sim_s: float = 0.0
    aborted: Optional[str] = None

    @property
    def total_ops(self) -> int:
        return self.boundaries[-1][0] if self.boundaries else 0

    @property
    def ops(self) -> List[int]:
        """Ops completed in each slice."""
        ends = [0] + [ops for ops, _events in self.boundaries]
        return [b - a for a, b in zip(ends, ends[1:])]

    def cu_per_op(self) -> List[float]:
        """Each slice's host cost in calibration units per op."""
        return [host / ops / cu_s for host, ops, cu_s
                in zip(self.host_s, self.ops, self.calib) if ops]

    def host_cu(self) -> float:
        """Whole-run host cost in calibration units (for ratios)."""
        return sum(host / cu_s
                   for host, cu_s in zip(self.host_s, self.calib))


def run_slices(target: Any, slice_sim_s: float, n_slices: int,
               yardstick: Yardstick,
               at_window_end: Optional[Callable[[SliceRun], None]] = None,
               host_seconds: float = 0.0) -> SliceRun:
    """Zero the meters, then advance equal simulated slices.

    The first ``n_slices`` are the simulated window; ``at_window_end``
    runs when it closes (the model's meters are read there).  Slices
    then continue, for host-cost samples only, until ``host_seconds``
    have passed since the start.  Each slice is advanced in
    :data:`STEPS_PER_SLICE` steps with a yardstick pass between steps:
    the host's speed wanders on a 0.1 s scale, so the yardstick has to
    be read *during* the slice it divides, not beside it.  A simulation
    that raises (an op timing out raises from the event loop) aborts the
    run; the slices completed so far are kept and the reason recorded
    instead of crashing.
    """
    sim = target.sim
    target.reset_measurements()
    run = SliceRun()
    start_now = sim.now
    step_s = slice_sim_s / STEPS_PER_SLICE
    events0 = dispatch_count()
    deadline = time.perf_counter() + host_seconds
    i = 0
    while i < n_slices or time.perf_counter() < deadline:
        host = 0.0
        passes = [yardstick.read()]
        try:
            for step in range(i * STEPS_PER_SLICE + 1,
                              (i + 1) * STEPS_PER_SLICE + 1):
                t0 = time.perf_counter()
                sim.run(until=start_now + step * step_s)
                host += time.perf_counter() - t0
                passes.append(yardstick.read())
        except Exception as exc:  # the model failed, not the harness
            run.aborted = f"{type(exc).__name__}: {exc}"
            break
        run.host_s.append(host)
        run.boundaries.append((completed(target)[0],
                               dispatch_count() - events0))
        run.calib.append(statistics.fmean(passes))
        i += 1
        if i == n_slices:
            run.window_sim_s = sim.now - start_now
            if at_window_end is not None:
                at_window_end(run)
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def midmean(values: List[float]) -> float:
    """The mean of the middle half: unmoved by the slices a garbage
    collection or a burst of interference landed in, steadier than the
    median."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _node_snapshots(target: Any) -> List[dict]:
    snap = target.metrics_snapshot()
    return list(snap["nodes"].values()) if "nodes" in snap else [snap]


def _server(node_snap: dict, kind: str) -> Dict[str, float]:
    for host, registry in node_snap["hosts"].items():
        if host.endswith("server"):
            return registry[kind]
    raise KeyError("no server host in snapshot")


def sim_metrics(target: Any, run: SliceRun, latency: ExactLatency
                ) -> Dict[str, float]:
    """The simulated end-to-end metrics of the finished window."""
    ops, nbytes = completed(target)
    window = run.window_sim_s
    busy_s = sum(node["utilization"]["server_cpu"] * window
                 for node in _node_snapshots(target))
    return {
        "sim_events_per_op": run.boundaries[-1][1] / ops,
        "sim_ops_per_s": ops / window,
        "sim_mb_per_s": nbytes / MB / window,
        "sim_latency_p50_us": latency.percentile_us(0.50),
        "sim_latency_p90_us": latency.percentile_us(0.90),
        "sim_server_cpu_us_per_op": 1e6 * busy_s / ops,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_metrics(target: Any, run: SliceRun,
                  lifetime_before: Dict[str, int]) -> Dict[str, float]:
    """The exact per-layer model counters of the finished window."""
    ops = completed(target)[0]
    kop = ops / 1000.0
    nodes = _node_snapshots(target)
    counters: Dict[str, float] = {}
    for node in nodes:
        for name, value in _server(node, "counters").items():
            counters[name] = counters.get(name, 0.0) + value
    used = sum(_server(node, "gauges").get("ncache.used.bytes", 0)
               for node in nodes)
    lifetime = lifetime_counts(target)

    def c(name: str) -> float:
        return counters.get(name, 0.0)

    def cpu(*prefixes: str) -> float:
        return sum(v for k, v in counters.items()
                   if k.startswith(tuple("cpu." + p for p in prefixes)))

    def pct(part: float, whole: float) -> float:
        return 100.0 * part / whole if whole else 0.0

    def util(prefix: str) -> float:
        values = [v for node in nodes
                  for k, v in node["utilization"].items()
                  if k.startswith(prefix)]
        return 100.0 * sum(values) / len(values)

    return {
        "sim.server_cpu_util_pct": util("server_cpu"),
        "sim.storage_cpu_util_pct": util("storage_cpu"),
        "sim.nic_tx_util_pct": util("server_nic"),
        "sim.backend_reads_per_kop":
            (lifetime["backend_reads"]
             - lifetime_before["backend_reads"]) / kop,
        "net.cpu_ns_per_op": cpu("net.", "udp.", "tcp.") / ops,
        "copymodel.physical_bytes_per_op": c("copies.physical_bytes") / ops,
        "copymodel.physical_copies_per_op": c("copies.physical") / ops,
        "copymodel.logical_copies_per_op": c("copies.logical") / ops,
        "cache.bcache.hit_pct": pct(
            c("cache.bcache.hit"),
            c("cache.bcache.hit") + c("cache.bcache.miss")),
        "cache.ncache.hit_pct": pct(
            c("cache.ncache.hit"),
            c("cache.ncache.hit") + c("cache.ncache.miss")),
        "cache.bcache.evictions_per_kop":
            (c("cache.bcache.evict_clean")
             + c("cache.bcache.evict_dirty")) / kop,
        "cache.ncache.evictions_per_kop":
            (c("cache.ncache.evict_clean")
             + c("cache.ncache.evict_dirty")) / kop,
        "cache.ghost_hits_per_kop":
            (c("cache.bcache.ghost_hit") + c("cache.ncache.ghost_hit")) / kop,
        "core.substitute_cpu_ns_per_op": c("cpu.ncache.substitute") / ops,
        "core.substituted_replies_per_op":
            c("ncache.substituted_replies") / ops,
        "core.substitute_miss_per_kop": c("ncache.substitute_miss") / kop,
        "core.remaps_per_kop": c("ncache.remap") / kop,
        "core.cached_writes_per_kop": c("ncache.cached_write") / kop,
        "core.ncache_used_mb": used / MB,
        "fs.cpu_ns_per_op": cpu("fs.") / ops,
        "fs.writebacks_per_kop": c("bcache.writeback") / kop,
        "nfs.cpu_ns_per_op": cpu("nfs.", "nfsd.", "rpc.") / ops,
        "nfs.retransmits": float(lifetime["nfs_retransmits"]
                                 - lifetime_before["nfs_retransmits"]),
        "nfs.drc_hits": c("nfs.drc_hit"),
        "iscsi.cpu_ns_per_op": cpu("iscsi.") / ops,
        "http.cpu_ns_per_op": cpu("http.") / ops,
        "fleet.peer_hit_pct": pct(c("fleet.peer_hit"),
                                  c("fleet.peer_probe")),
        "fleet.peer_mb": c("fleet.peer_bytes") / MB,
        "fleet.imbalance":
            target.imbalance() if hasattr(target, "imbalance") else 0.0,
    }
