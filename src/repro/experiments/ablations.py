"""Ablations beyond the paper's figures (flagged as extensions in DESIGN.md).

* **A1 checksum inheritance** — with checksum offload disabled, compare
  the original server, NCache inheriting cached checksums (§1), and
  NCache recomputing them on every substitution.
* **A2 FS-cache size** — NCache deliberately shrinks the file-system
  cache (§3.4); this sweep shows the NCache store acting as the L2 that
  absorbs the extra FS-cache misses.
* **A3 remapping** — disable FHO→LBN remapping and observe duplicate
  cached blocks (FHO copies that never converge onto their LBN identity).
* **A4 capacity** — NCache store capacity sweep under a Zipf web load.
"""

from __future__ import annotations

from ..analysis.tables import ExperimentResult, pct_gain
from ..copymodel.costs import CostModel
from ..servers.config import MB, ServerMode
from ..servers.spec import TestbedSpec
from ..workloads.microbench import AllHitReadWorkload, SequentialReadWorkload
from ..workloads.specsfs import SpecSfsWorkload
from ..workloads.specweb import SpecWebWorkload
from .common import measure, scaled_memory_config
from .parallel import RunSpec, sweep


def _allhit_throughput(mode: ServerMode, quick: bool,
                       **config: object) -> float:
    """32 KB all-hit reads on the CPU-bound machine of Figure 5(b):
    two NICs, eight daemons."""
    testbed = TestbedSpec.nfs(mode, n_server_nics=2, n_daemons=8,
                              flush_interval_s=None, **config).build()
    workload = AllHitReadWorkload(testbed, 32768, streams_per_client=6)
    measure(testbed, workload, quick)
    return testbed.meters.throughput.mb_per_second()


def run_checksum(quick: bool = True) -> ExperimentResult:
    """A1: software-checksum world (offload off), 32 KB all-hit reads."""
    result = ExperimentResult(
        name="ablation_checksum",
        title="A1: checksum inheritance with NIC offload disabled",
        columns=["config", "throughput_mbps"])
    configs = [
        ("original (sw checksum)", ServerMode.ORIGINAL,
         dict(checksum_offload=False)),
        ("NCache inherit", ServerMode.NCACHE,
         dict(checksum_offload=False, ncache_inherit_checksums=True)),
        ("NCache recompute", ServerMode.NCACHE,
         dict(checksum_offload=False, ncache_inherit_checksums=False)),
        ("original (offload on)", ServerMode.ORIGINAL,
         dict(checksum_offload=True)),
        ("NCache (offload on)", ServerMode.NCACHE,
         dict(checksum_offload=True)),
    ]
    for label, mode, config in configs:
        result.add_row(config=label,
                       throughput_mbps=_allhit_throughput(
                           mode, quick, **config))
    inherit = result.value("throughput_mbps", config="NCache inherit")
    recompute = result.value("throughput_mbps", config="NCache recompute")
    result.add_note(f"inheriting cached checksums is worth "
                    f"{pct_gain(inherit, recompute):+.1f}% when the NIC "
                    f"cannot offload")
    return result


def run_fs_cache_size(quick: bool = True) -> ExperimentResult:
    """A2: NCache throughput vs the (deliberately small) FS cache size."""
    result = ExperimentResult(
        name="ablation_fs_cache",
        title="A2: FS buffer cache size under NCache "
              "(double-buffering control, §3.4)",
        columns=["fs_cache_mb", "throughput_mbps", "fs_hit_ratio"])
    scale = 4 if quick else 1
    overrides = scaled_memory_config(scale)
    working_set = 300 * MB // scale
    for fs_mb in (8, 16, 32, 64, 128):
        fs_bytes = fs_mb * MB // scale
        testbed = TestbedSpec.web(
            ServerMode.NCACHE,
            **{**overrides, "ncache_fs_cache_bytes": fs_bytes}).build()
        workload = SpecWebWorkload(testbed, working_set_bytes=working_set)
        measure(testbed, workload, quick, ranked=workload.paths)
        result.add_row(fs_cache_mb=fs_mb,
                       throughput_mbps=testbed.meters.throughput
                       .mb_per_second(),
                       fs_hit_ratio=testbed.cache.hit_ratio())
    result.add_note("throughput is nearly flat: the network-centric cache "
                    "acts as a second-level cache absorbing FS-cache "
                    "misses (§3.4)")
    return result


def run_remap(quick: bool = True) -> ExperimentResult:
    """A3: remapping on/off under a write-heavy SPECsfs mix."""
    result = ExperimentResult(
        name="ablation_remap",
        title="A3: FHO->LBN remapping on buffer-cache flush",
        columns=["config", "ops_per_sec", "remaps", "ncache_writebacks",
                 "fho_chunks_left"])
    for label, enable in (("remap on", True), ("remap off", False)):
        testbed = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=0.05,
                                  ncache_enable_remap=enable).build()
        workload = SpecSfsWorkload(testbed, pct_regular=1.0,
                                   read_write_ratio=1.0,
                                   fs_size_bytes=256 * MB)
        measure(testbed, workload, quick, ranked=workload.names)
        counters = testbed.server_host.counters
        result.add_row(config=label,
                       ops_per_sec=testbed.meters.throughput
                       .ops_per_second(),
                       remaps=counters["ncache.remap"].value,
                       ncache_writebacks=counters["ncache.writeback"].value,
                       fho_chunks_left=testbed.ncache.store.n_fho)
    result.add_note("without remapping, flushed blocks linger under their "
                    "FHO identity: the same data may be cached twice "
                    "(FHO + a later LBN fill), wasting chunk memory")
    return result


def run_capacity(quick: bool = True) -> ExperimentResult:
    """A4: NCache store capacity sweep under a Zipf web working set."""
    result = ExperimentResult(
        name="ablation_capacity",
        title="A4: NCache capacity vs throughput (Zipf working set)",
        columns=["capacity_frac", "throughput_mbps"])
    scale = 4 if quick else 1
    working_set = 600 * MB // scale
    for frac in (0.25, 0.5, 0.75, 1.0):
        overrides = scaled_memory_config(scale)
        ram = overrides.get("server_ram_bytes", 896 * MB)
        carve = overrides.get("server_kernel_carveout", 96 * MB)
        fs = overrides.get("ncache_fs_cache_bytes", 64 * MB)
        usable = ram - carve - fs
        # Shrink usable memory by inflating the kernel carve-out.
        overrides["server_kernel_carveout"] = \
            carve + int(usable * (1 - frac))
        testbed = TestbedSpec.web(ServerMode.NCACHE, **overrides).build()
        workload = SpecWebWorkload(testbed, working_set_bytes=working_set)
        measure(testbed, workload, quick, ranked=workload.paths)
        result.add_row(capacity_frac=frac,
                       throughput_mbps=testbed.meters.throughput
                       .mb_per_second())
    result.add_note("Zipf popularity makes throughput degrade gracefully "
                    "as the store shrinks")
    return result


def run_memcpy_cost(quick: bool = True) -> ExperimentResult:
    """A5: how the NCache gain scales with the machine's copy cost.

    The paper's benefit is proportional to memcpy expense; sweeping the
    per-byte cost shows where NCache stops mattering (fast memory) and
    where it dominates (slow memory relative to per-packet work).
    """
    result = ExperimentResult(
        name="ablation_memcpy",
        title="A5: NCache gain vs memcpy cost (32 KB all-hit, 2 NICs)",
        columns=["memcpy_ns_per_byte", "original_mbps", "ncache_mbps",
                 "gain_pct"])
    for ns_per_byte in (1.0, 2.0, 3.0, 5.0, 8.0):
        costs = CostModel(memcpy_ns_per_byte=ns_per_byte)
        orig = _allhit_throughput(ServerMode.ORIGINAL, quick, costs=costs)
        ncache = _allhit_throughput(ServerMode.NCACHE, quick, costs=costs)
        result.add_row(memcpy_ns_per_byte=ns_per_byte, original_mbps=orig,
                       ncache_mbps=ncache,
                       gain_pct=pct_gain(ncache, orig))
    result.add_note("the default calibration (3 ns/B ~ P3-class memory) "
                    "sits in the steep part of the curve")
    return result


def run_daemon_count(quick: bool = True) -> ExperimentResult:
    """A6: nfsd pool size tuning (the paper tunes this per experiment)."""
    result = ExperimentResult(
        name="ablation_daemons",
        title="A6: NFS daemon count vs all-miss throughput (NCache, 32 KB)",
        columns=["n_daemons", "throughput_mbps", "server_cpu_pct"])
    for n_daemons in (2, 4, 8, 16, 32):
        testbed = TestbedSpec.nfs(ServerMode.NCACHE, n_daemons=n_daemons,
                                  flush_interval_s=None).build()
        workload = SequentialReadWorkload(testbed, 32768,
                                          file_size=128 * MB,
                                          streams_per_client=12)
        measure(testbed, workload, quick)
        result.add_row(n_daemons=n_daemons,
                       throughput_mbps=testbed.meters.throughput
                       .mb_per_second(),
                       server_cpu_pct=testbed.server_cpu_utilization()
                       * 100)
    result.add_note("too few daemons starve the disk pipeline; returns "
                    "flatten once concurrency covers storage latency — "
                    "the tuning the paper performs per request size")
    return result


def run_loss(quick: bool = True) -> ExperimentResult:
    """A7: throughput under UDP loss — retransmission from the cache.

    Lost NFS replies are retransmitted after the client's RTO; under
    NCache the replayed reply is substituted from the network-centric
    cache again (no copies), while the original server re-copies the data
    for every retransmission.
    """
    result = ExperimentResult(
        name="ablation_loss",
        title="A7: all-hit throughput vs UDP loss rate (32 KB)",
        columns=["loss_pct", "mode", "throughput_mbps", "retransmissions"])
    for loss in (0.0, 0.005, 0.02):
        for mode in (ServerMode.ORIGINAL, ServerMode.NCACHE):
            testbed = TestbedSpec.nfs(mode, n_server_nics=2, n_daemons=8,
                                      flush_interval_s=None).build()
            workload = AllHitReadWorkload(testbed, 32768,
                                          streams_per_client=6)
            # Loss starts once the cache is warm: prewarm reads must
            # not be dropped.
            measure(testbed, workload, quick,
                    before_load=lambda: testbed.network.set_loss(
                        loss, seed=13))
            retrans = sum(c.retransmissions for c in testbed.clients)
            result.add_row(loss_pct=loss * 100, mode=mode.label,
                           throughput_mbps=testbed.meters.throughput
                           .mb_per_second(),
                           retransmissions=retrans)
    result.add_note("loss costs everyone RTO stalls; NCache keeps its "
                    "relative advantage because retransmitted replies are "
                    "re-substituted, not re-copied")
    return result


def run_network_ready_disk(quick: bool = True) -> ExperimentResult:
    """A8 — the paper's §6 future work, prototyped.

    "It is possible to take this idea one step further by organizing
    disk-resident data in a network-ready format."  With blocks pre-framed
    on disk, the *storage server's* read path also goes copy-free; on the
    all-miss workload — where the storage CPU is the bottleneck for
    NCache (Figure 4) — that lifts end-to-end throughput further.
    """
    result = ExperimentResult(
        name="ablation_netdisk",
        title="A8: network-ready on-disk format (§6), 32 KB all-miss",
        columns=["server", "disk_format", "throughput_mbps",
                 "storage_cpu_pct"])
    for mode in (ServerMode.ORIGINAL, ServerMode.NCACHE):
        for ready in (False, True):
            testbed = TestbedSpec.nfs(
                mode, n_daemons=24, flush_interval_s=None,
                storage_network_ready_disk=ready).build()
            workload = SequentialReadWorkload(testbed, 32768,
                                              file_size=256 * MB,
                                              streams_per_client=12)
            measure(testbed, workload, quick)
            result.add_row(server=mode.label,
                           disk_format="network-ready" if ready
                           else "conventional",
                           throughput_mbps=testbed.meters.throughput
                           .mb_per_second(),
                           storage_cpu_pct=testbed
                           .storage_cpu_utilization() * 100)
    result.add_note("the network-ready disk format helps most where the "
                    "storage CPU is the bottleneck — i.e. exactly when the "
                    "pass-through server already runs NCache")
    return result


#: The ablation entry points, in report order.  Each is one grid unit:
#: ablations parallelize per *ablation* rather than per cell because
#: several of them derive notes from cross-cell comparisons.
ABLATIONS = ("run_checksum", "run_fs_cache_size", "run_remap",
             "run_capacity", "run_memcpy_cost", "run_daemon_count",
             "run_loss", "run_network_ready_disk")


def grid(quick: bool = True) -> list:
    """One picklable spec per ablation (each returns an ExperimentResult)."""
    return [RunSpec(fn=f"repro.experiments.ablations:{fn_name}",
                    args=(quick,), capture_reports=False,
                    label=f"ablations/{fn_name[4:]}")
            for fn_name in ABLATIONS]


def run(quick: bool = True, workers: int = 1,
        trace_sink: list = None) -> list:
    """All ablations, A1 through A8."""
    return [rr.value for rr in sweep(grid(quick), workers, trace_sink)]
