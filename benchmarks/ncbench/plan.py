"""The five workloads, their slice plans, and the metric tables.

Everything a run needs to know that is not measured lives here, and
``BENCHMARK.json`` at the repository root is :func:`manifest` written
out (a self-test keeps the two equal).

All workloads are **closed loop** — every simulated client waits for its
reply before issuing the next request, as the paper's clients do — and
run ``ServerMode.NCACHE``.  A run advances the simulation in equal
slices of fixed *simulated* length.  The first :data:`SIM_SLICES` of
them are the simulated window: every ``sim_*`` metric is read at its end,
so the same ``(workload, seed)`` always measures the same window and
repeats exactly, however fast the host is.  Host cost keeps being
sampled, slice after slice, until ``--seconds`` of host time have gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments import fleet_scaling
from repro.experiments.common import scaled_memory_config, warm_caches
from repro.servers.config import MB, ServerMode
from repro.servers.spec import TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from repro.sim.rng import substream
from repro.workloads.fleetzipf import FleetZipfWorkload
from repro.workloads.microbench import (AllHitReadWorkload,
                                        SequentialReadWorkload)
from repro.workloads.specsfs import SpecSfsWorkload
from repro.workloads.specweb import SpecWebWorkload

KB = 1024

#: Slices of the simulated window (about 0.2 s of host time each on the
#: reference box, so the window ends well inside ``RUN_SECONDS`` even
#: when the box runs at half speed).
SIM_SLICES = 20
#: Slices the traced run and its untraced twin cover.
TRACE_SLICES = 10
#: ``run_seconds`` of BENCHMARK.json.
RUN_SECONDS = 10


class StaggeredAllHit(AllHitReadWorkload):
    """The all-hit streams, each starting after a seed-drawn pause.

    Every request of the stock workload costs the same, so its seed
    (which slot to read) changes nothing a client can see.  Up to 2 ms
    of start-up stagger per stream lets the seed pick the phase the
    closed loop settles in.
    """

    def _stream(self, client: Any, rng: Any) -> Any:
        yield rng.random() * 0.002
        yield from super()._stream(client, rng)


class SeededSequentialRead(SequentialReadWorkload):
    """The all-miss streams, with the seed choosing where they start.

    The stock generator is fully deterministic; the benchmark contract
    wants inputs made from the seed.  Every stream keeps the stock
    stagger (so streams still spread over the RAID stripes) and the
    seed adds one common rotation of the starting request.
    """

    def __init__(self, testbed: Any, seed: int, **kwargs: Any) -> None:
        self.seed = seed
        super().__init__(testbed, **kwargs)

    def _params(self) -> Dict[str, Any]:
        return {**super()._params(), "seed": self.seed}

    def start(self) -> None:
        requests = self.file_size // self.request_size
        shift = substream(self.seed, "seqread-start").randrange(requests)
        total = len(self._handles)
        clients = self.testbed.clients
        for i, fh in enumerate(self._handles):
            client = clients[i // self.streams_per_client]
            first = (requests * i // total + 17 * i + shift) % requests
            self._processes.append(
                start(self.testbed.sim,
                      self._stream(client, fh, first * self.request_size),
                      name=f"seqread-{i}"))


# ---------------------------------------------------------------------------
# set-up: spec build + bind + login + warm-start + simulated warm-up
# ---------------------------------------------------------------------------
#
# Each builder returns ``(target, workload)`` with the load running and
# the caches in steady state; ``target`` is a testbed or a fleet.  The
# ``mode`` argument exists for the ORIGINAL reference run behind
# ``paper_gain_err_pts``; every measured run uses NCACHE.

def _nfs_allhit(seed: int, mode: ServerMode) -> Tuple[Any, Any]:
    testbed = TestbedSpec.nfs(mode, flush_interval_s=None,
                              n_server_nics=2, n_daemons=8).build()
    load = StaggeredAllHit(testbed, 32 * KB, streams_per_client=6,
                           seed=seed)
    testbed.setup()
    run_until_complete(testbed.sim, load.prewarm())
    load.start()
    testbed.sim.run(until=testbed.sim.now + 0.1)
    return testbed, load


def _nfs_allmiss(seed: int, mode: ServerMode) -> Tuple[Any, Any]:
    testbed = TestbedSpec.nfs(mode, flush_interval_s=None, n_server_nics=1,
                              n_daemons=16,
                              **scaled_memory_config(16)).build()
    load = SeededSequentialRead(testbed, seed, request_size=32 * KB,
                                file_size=256 * MB, streams_per_client=4)
    testbed.setup()
    load.start()
    sim = testbed.sim
    if testbed.ncache is None:
        sim.run(until=sim.now + 0.5)
    else:
        # Warm until the NCache is full, so the timed window evicts.
        store = testbed.ncache.store
        while store.used_bytes < 0.95 * store.capacity_bytes:
            sim.run(until=sim.now + 0.05)
    return testbed, load


def _sfs_mixed(seed: int, mode: ServerMode) -> Tuple[Any, Any]:
    testbed = TestbedSpec.nfs(mode, flush_interval_s=0.05, n_server_nics=1,
                              n_daemons=16).build()
    testbed.flush_daemon.max_blocks_per_pass = 16
    load = SpecSfsWorkload(testbed, pct_regular=0.75, read_write_ratio=5.0,
                           fs_size_bytes=512 * MB, outstanding_per_client=8,
                           seed=seed)
    testbed.setup()
    warm_caches(testbed, load.names)
    load.start()
    testbed.sim.run(until=testbed.sim.now + 0.15)
    return testbed, load


def _web_zipf(seed: int, mode: ServerMode) -> Tuple[Any, Any]:
    testbed = TestbedSpec.web(mode, connections_per_client=6,
                              n_server_nics=2).build()
    load = SpecWebWorkload(testbed, working_set_bytes=750 * MB, seed=seed)
    testbed.setup()
    warm_caches(testbed, load.paths)
    load.start()
    testbed.sim.run(until=testbed.sim.now + 0.15)
    return testbed, load


def _fleet_coop(seed: int, mode: ServerMode) -> Tuple[Any, Any]:
    fleet = fleet_scaling.cluster_spec(4, cooperative=True,
                                       replication=2).build()
    load = FleetZipfWorkload(n_files=192, file_size=128 * KB,
                             request_size=32 * KB, zipf_alpha=0.9,
                             n_logical_clients=1_000_000, n_streams=32,
                             think_time_s=0.0005, seed=seed).bind(fleet)
    fleet.setup()
    load.start()
    # Double warm-up, as fleet_scaling does: the fleet must reach cache
    # steady state before backend reads mean anything.
    fleet.sim.run(until=fleet.sim.now + 0.3)
    return fleet, load


@dataclass(frozen=True)
class WorkloadPlan:
    name: str
    why: str
    build: Callable[[int, ServerMode], Tuple[Any, Any]]
    #: simulated seconds per slice.
    slice_sim_s: float
    #: nobody writes the workload's files (decides the post-run probe).
    read_only: bool = True
    #: ``repro.analysis.paper`` claim the throughput gain is held against
    #: (None: no paper reference exists — the model is unvalidated here).
    paper_claim: str = ""
    #: which throughput the claim is about.
    gain_metric: str = "sim_mb_per_s"


WORKLOADS: Tuple[WorkloadPlan, ...] = (
    WorkloadPlan(
        "nfs_allhit",
        "Figure 5(b): random 32 KB READs of a prewarmed 5 MB file, 2 NICs; "
        "CPU-bound, no disk, no eviction: net TX + NCache substitution + "
        "nfs + sim work, cache/iscsi/http/fleet idle",
        _nfs_allhit, 0.15, paper_claim="fig5-ncache-32k"),
    WorkloadPlan(
        "nfs_allmiss",
        "Figure 4 shape, memory /16: sequential 32 KB streams over 256 MB "
        "files; every op misses to iSCSI and disk, fills and evicts the "
        "NCache: the NFS workload where cache and core.store work",
        _nfs_allmiss, 0.125, paper_claim="fig4-ncache-32k"),
    WorkloadPlan(
        "sfs_mixed",
        "Figure 7 at 75% regular data: SPECsfs-like mix, read:write 5:1, "
        "25% metadata, flush daemon; writes, FHO->LBN remap and write-back "
        "run beside reads, so a read-path gain that taxes writes shows",
        _sfs_mixed, 0.1, read_only=False, paper_claim="fig7-75pct",
        gain_metric="sim_ops_per_s"),
    WorkloadPlan(
        "web_zipf",
        "Figure 6(a), full memory: 750 MB SPECweb-like Zipf set over "
        "kHTTPd/TCP, partial hit ratio; the only http + TCP-segmentation "
        "workload, and the one with large set-up time and memory",
        _web_zipf, 0.2, paper_claim="fig6a-500mb"),
    WorkloadPlan(
        "fleet_coop",
        "4-node cooperative fleet (replication 2) under Zipf 0.9 load; the "
        "only workload running the hash ring, balancer and peer probes, 4x "
        "the hosts on one engine; no paper reference exists for it",
        _fleet_coop, 0.1),
)

BY_NAME: Dict[str, WorkloadPlan] = {w.name: w for w in WORKLOADS}


# ---------------------------------------------------------------------------
# metric tables
# ---------------------------------------------------------------------------

#: ``(name, unit, better, bound)``.  Simulated metrics (``sim_*``) are
#: what the modelled testbed does and repeat exactly for one seed; their
#: bounds cover the variation *between seeds*.  Host metrics are what the
#: Python program costs.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("host_cu_per_op", "cu/op", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("sim_events_per_op", "ev/op", "lower", 0.05),
    ("sim_ops_per_s", "1/s", "higher", 0.20),
    ("sim_mb_per_s", "MB/s", "higher", 0.20),
    ("sim_latency_p50_us", "us", "lower", 0.20),
    ("sim_latency_p90_us", "us", "lower", 0.22),
    ("sim_server_cpu_us_per_op", "us/op", "lower", 0.15),
)

#: The simulator's packages, plus ``bench`` for the harness itself.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "copymodel", "cache", "core", "fs", "nfs", "iscsi",
    "http", "rpc", "fleet", "obs", "workloads", "bench")

#: Exact model counters read from ``metrics_snapshot()``.
MODEL_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.server_cpu_util_pct", "%", "lower"),
    ("sim.storage_cpu_util_pct", "%", "lower"),
    ("sim.nic_tx_util_pct", "%", "lower"),
    ("sim.backend_reads_per_kop", "1/kop", "lower"),
    ("sim.latency_p99_us", "us", "lower"),
    ("net.cpu_ns_per_op", "ns/op", "lower"),
    ("copymodel.physical_bytes_per_op", "B/op", "lower"),
    ("copymodel.physical_copies_per_op", "1/op", "lower"),
    ("copymodel.logical_copies_per_op", "1/op", "lower"),
    ("cache.bcache.hit_pct", "%", "higher"),
    ("cache.ncache.hit_pct", "%", "higher"),
    ("cache.bcache.evictions_per_kop", "1/kop", "lower"),
    ("cache.ncache.evictions_per_kop", "1/kop", "lower"),
    ("cache.ghost_hits_per_kop", "1/kop", "lower"),
    ("core.substitute_cpu_ns_per_op", "ns/op", "lower"),
    ("core.substituted_replies_per_op", "1/op", "higher"),
    ("core.substitute_miss_per_kop", "1/kop", "lower"),
    ("core.remaps_per_kop", "1/kop", "higher"),
    ("core.cached_writes_per_kop", "1/kop", "higher"),
    ("core.ncache_used_mb", "MB", "lower"),
    ("fs.cpu_ns_per_op", "ns/op", "lower"),
    ("fs.writebacks_per_kop", "1/kop", "lower"),
    ("nfs.cpu_ns_per_op", "ns/op", "lower"),
    ("nfs.retransmits", "count", "lower"),
    ("nfs.drc_hits", "count", "lower"),
    ("iscsi.cpu_ns_per_op", "ns/op", "lower"),
    ("http.cpu_ns_per_op", "ns/op", "lower"),
    ("fleet.peer_hit_pct", "%", "higher"),
    ("fleet.peer_mb", "MB", "lower"),
    ("fleet.imbalance", "ratio", "lower"),
)

#: Harness and accuracy metrics of the traced invocation.
BENCH_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("bench.failed_ops_pct", "%", "lower"),
    ("bench.replies_verified", "count", "higher"),
    ("bench.paper_gain_pct", "%", "higher"),
    ("bench.paper_gain_err_pts", "pt", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.attribution_coverage_pct", "%", "higher"),
    ("bench.cu_ns_p50", "ns", "lower"),
    ("bench.raw_us_per_op_p50", "us/op", "lower"),
    ("bench.cu_per_op_p25", "cu/op", "lower"),
    ("bench.cu_per_op_p50", "cu/op", "lower"),
    ("bench.cu_per_op_p75", "cu/op", "lower"),
    ("bench.setup_raw_s", "s", "lower"),
    ("bench.import_s", "s", "lower"),
)

#: Isolated layer kernels, cu per call (see :mod:`ncbench.kernels`).
KERNEL_METRICS: Tuple[str, ...] = (
    "sim.k_timer_storm_cu", "sim.k_packet_train_cu", "sim.k_churn_mix_cu",
    "net.k_payload_slice_cu", "net.k_payload_split_cu", "net.k_concat_cu",
    "net.k_chain_from_payload_cu",
    "cache.k_lookup_touch_cu", "cache.k_insert_evict_cu",
    "core.k_store_lookup_cu", "core.k_store_insert_cu",
    "core.k_chunk_from_payload_cu",
    "fs.k_bcache_lookup_cu", "fs.k_file_payload_cu",
    "obs.k_counter_add_cu", "obs.k_trace_emit_off_cu",
    "obs.k_trace_emit_on_cu",
)


def per_layer() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out: List[Tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.self_cu_per_op", "cu/op", "lower"))
        out.append((f"{layer}.calls_per_op", "1/op", "lower"))
        out.append((f"{layer}.self_share_pct", "%", "lower"))
    out.extend(MODEL_METRICS)
    out.extend(BENCH_METRICS)
    out.extend((name, "cu/call", "lower") for name in KERNEL_METRICS)
    return out


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ncbench/run.py"],
        "paths": ["benchmarks/ncbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer()],
    }
