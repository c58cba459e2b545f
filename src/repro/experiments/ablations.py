"""Ablations beyond the paper's figures (flagged as extensions in DESIGN.md).

Each is a table of ``dataclasses.replace`` on a figure's cell:

* **A1 checksum inheritance** — with checksum offload disabled, compare
  the original server, NCache inheriting cached checksums (§1), and
  NCache recomputing them on every substitution.
* **A2 FS-cache size** — NCache deliberately shrinks the file-system
  cache (§3.4); this sweep shows the NCache store acting as the L2 that
  absorbs the extra FS-cache misses.
* **A3 remapping** — disable FHO→LBN remapping and observe duplicate
  cached blocks (FHO copies that never converge onto their LBN identity).
* **A4 capacity** — NCache store capacity sweep under a Zipf web load.
* **A5 memcpy cost** — the paper's benefit is proportional to memcpy
  expense; sweeping the per-byte cost shows where NCache stops mattering
  (fast memory) and where it dominates (slow memory relative to
  per-packet work).
* **A6 daemon count** — nfsd pool size (the paper tunes it per
  experiment).
* **A7 loss** — lost NFS replies are retransmitted after the client's
  RTO; under NCache the replayed reply is substituted from the
  network-centric cache again (no copies), while the original server
  re-copies the data for every retransmission.
* **A8 network-ready disk** — the paper's §6 future work, prototyped:
  "It is possible to take this idea one step further by organizing
  disk-resident data in a network-ready format."  With blocks pre-framed
  on disk, the *storage server's* read path also goes copy-free; on the
  all-miss workload — where the storage CPU is the bottleneck for NCache
  (Figure 4) — that lifts end-to-end throughput further.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Dict, Iterator, List

from ..analysis.tables import ExperimentResult, pct_gain
from ..copymodel.costs import CostModel
from ..servers.config import MB, ServerMode
from . import figure4, figure5, figure6, figure7
from .common import Cell, Sweep, fixed_note, read, variant

ORIGINAL, NCACHE = ServerMode.ORIGINAL, ServerMode.NCACHE


def _allhit(mode: ServerMode) -> Cell:
    """Figure 5(b)'s 32 KB cell (the CPU-bound all-hit machine),
    reporting throughput alone."""
    return replace(figure5.SWEEP.cell(f"{mode.value}/2nic/32768"),
                   readout=read)


def _allmiss(mode: ServerMode, file_mb: int, readout: Any) -> Cell:
    """Figure 4's 32 KB cell over ``file_mb``-MB files."""
    base = figure4.SWEEP.cell(f"{mode.value}/32768")
    return replace(base, readout=readout, workload=partial(
        base.workload, file_size=file_mb * MB))


def _specweb(working_set_mb: int, quick: bool, readout: Any) -> Cell:
    """Figure 6(a)'s NCache cell at another working set."""
    scale = figure6.QUICK_SCALE if quick else 1
    base = figure6.SWEEP_A.cell("ncache/250mb", quick)
    return replace(base, readout=readout, workload=partial(
        base.workload, working_set_bytes=working_set_mb * MB // scale))


def _checksum_cells(quick: bool) -> List[Cell]:
    return [variant(_allhit(mode), label, {"config": label}, **config)
            for label, mode, config in (
                ("original (sw checksum)", ORIGINAL,
                 dict(checksum_offload=False)),
                ("NCache inherit", NCACHE,
                 dict(checksum_offload=False, ncache_inherit_checksums=True)),
                ("NCache recompute", NCACHE,
                 dict(checksum_offload=False,
                      ncache_inherit_checksums=False)),
                ("original (offload on)", ORIGINAL,
                 dict(checksum_offload=True)),
                ("NCache (offload on)", NCACHE,
                 dict(checksum_offload=True)))]


def _checksum_notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    inherit = result.value("throughput_mbps", config="NCache inherit")
    recompute = result.value("throughput_mbps", config="NCache recompute")
    yield (f"inheriting cached checksums is worth "
           f"{pct_gain(inherit, recompute):+.1f}% when the NIC "
           f"cannot offload")


def _fs_cache_cells(quick: bool) -> List[Cell]:
    scale = figure6.QUICK_SCALE if quick else 1
    base = _specweb(300, quick, _fs_cache_readout)
    return [variant(base, f"{fs_mb}mb", {"fs_cache_mb": fs_mb},
                    ncache_fs_cache_bytes=fs_mb * MB // scale)
            for fs_mb in (8, 16, 32, 64, 128)]


def _fs_cache_readout(testbed, workload) -> Dict[str, float]:
    return {**read(testbed, workload),
            "fs_hit_ratio": testbed.cache.hit_ratio()}


def _remap_cells(quick: bool) -> List[Cell]:
    # Figure 7's NCache cell under a write-heavy all-data mix, flushed at
    # the daemon's own pass size.
    base = figure7.SWEEP.cell("ncache/75pct", quick)
    base = replace(base, before_load=None, readout=_remap_readout,
                   workload=partial(base.workload, pct_regular=1.0,
                                    read_write_ratio=1.0,
                                    fs_size_bytes=256 * MB))
    return [variant(base, label, {"config": label},
                    ncache_enable_remap=enable)
            for label, enable in (("remap on", True), ("remap off", False))]


def _remap_readout(testbed, workload) -> Dict[str, float]:
    counters = testbed.server_host.counters
    return {**read(testbed, workload, ("ops_per_sec",)),
            "remaps": counters["ncache.remap"].value,
            "ncache_writebacks": counters["ncache.writeback"].value,
            "fho_chunks_left": testbed.ncache.store.n_fho}


def _capacity_cells(quick: bool) -> List[Cell]:
    base = _specweb(600, quick, read)
    config = base.spec.config
    # Shrink the store by inflating the kernel carve-out.
    return [variant(base, f"{frac}", {"capacity_frac": frac},
                    server_kernel_carveout=config.server_kernel_carveout
                    + int(config.ncache_capacity_bytes * (1 - frac)))
            for frac in (0.25, 0.5, 0.75, 1.0)]


def _memcpy_cells(quick: bool) -> List[Cell]:
    return [variant(_allhit(mode), f"{mode.value}/{ns_per_byte}",
                    {"memcpy_ns_per_byte": ns_per_byte},
                    costs=CostModel(memcpy_ns_per_byte=ns_per_byte))
            for ns_per_byte in (1.0, 2.0, 3.0, 5.0, 8.0)
            for mode in (ORIGINAL, NCACHE)]


def _memcpy_rows(rows: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """One row per memcpy cost from its (original, NCache) pair."""
    for orig, ncache in zip(rows[0::2], rows[1::2]):
        yield {"memcpy_ns_per_byte": orig["memcpy_ns_per_byte"],
               "original_mbps": orig["throughput_mbps"],
               "ncache_mbps": ncache["throughput_mbps"],
               "gain_pct": pct_gain(ncache["throughput_mbps"],
                                    orig["throughput_mbps"])}


def _daemon_cells(quick: bool) -> List[Cell]:
    base = _allmiss(NCACHE, 128, partial(
        read, columns=("throughput_mbps", "server_cpu_pct")))
    return [variant(base, f"{n_daemons}", {"n_daemons": n_daemons},
                    n_daemons=n_daemons)
            for n_daemons in (2, 4, 8, 16, 32)]


def _loss_cells(quick: bool) -> List[Cell]:
    # Loss starts once the cache is warm: prewarm reads must not be
    # dropped.
    return [replace(_allhit(mode), label=f"{loss}/{mode.value}",
                    axes={"loss_pct": loss * 100, "mode": mode.label},
                    before_load=partial(_start_loss, rate=loss),
                    readout=_loss_readout)
            for loss in (0.0, 0.005, 0.02)
            for mode in (ORIGINAL, NCACHE)]


def _start_loss(testbed, rate: float) -> None:
    testbed.network.set_loss(rate, seed=13)


def _loss_readout(testbed, workload) -> Dict[str, float]:
    return {**read(testbed, workload),
            "retransmissions": sum(c.retransmissions
                                   for c in testbed.clients)}


def _netdisk_cells(quick: bool) -> List[Cell]:
    readout = partial(read, columns=("throughput_mbps", "storage_cpu_pct"))
    return [variant(_allmiss(mode, 256, readout),
                    f"{mode.value}/{disk_format}",
                    {"server": mode.label, "disk_format": disk_format},
                    storage_network_ready_disk=ready)
            for mode in (ORIGINAL, NCACHE)
            for ready, disk_format in ((False, "conventional"),
                                       (True, "network-ready"))]


#: A1 through A8, in report order.
SWEEPS = (
    Sweep("ablation_checksum",
          "A1: checksum inheritance with NIC offload disabled",
          ("config", "throughput_mbps"),
          _checksum_cells, notes=_checksum_notes),
    Sweep("ablation_fs_cache",
          "A2: FS buffer cache size under NCache "
          "(double-buffering control, §3.4)",
          ("fs_cache_mb", "throughput_mbps", "fs_hit_ratio"),
          _fs_cache_cells, notes=fixed_note(
              "throughput is nearly flat: the network-centric cache "
              "acts as a second-level cache absorbing FS-cache "
              "misses (§3.4)")),
    Sweep("ablation_remap",
          "A3: FHO->LBN remapping on buffer-cache flush",
          ("config", "ops_per_sec", "remaps", "ncache_writebacks",
           "fho_chunks_left"),
          _remap_cells, notes=fixed_note(
              "without remapping, flushed blocks linger under their "
              "FHO identity: the same data may be cached twice "
              "(FHO + a later LBN fill), wasting chunk memory")),
    Sweep("ablation_capacity",
          "A4: NCache capacity vs throughput (Zipf working set)",
          ("capacity_frac", "throughput_mbps"),
          _capacity_cells, notes=fixed_note(
              "Zipf popularity makes throughput degrade gracefully "
              "as the store shrinks")),
    Sweep("ablation_memcpy",
          "A5: NCache gain vs memcpy cost (32 KB all-hit, 2 NICs)",
          ("memcpy_ns_per_byte", "original_mbps", "ncache_mbps",
           "gain_pct"),
          _memcpy_cells, assemble=_memcpy_rows, notes=fixed_note(
              "the default calibration (3 ns/B ~ P3-class memory) "
              "sits in the steep part of the curve")),
    Sweep("ablation_daemons",
          "A6: NFS daemon count vs all-miss throughput (NCache, 32 KB)",
          ("n_daemons", "throughput_mbps", "server_cpu_pct"),
          _daemon_cells, notes=fixed_note(
              "too few daemons starve the disk pipeline; returns "
              "flatten once concurrency covers storage latency — "
              "the tuning the paper performs per request size")),
    Sweep("ablation_loss",
          "A7: all-hit throughput vs UDP loss rate (32 KB)",
          ("loss_pct", "mode", "throughput_mbps", "retransmissions"),
          _loss_cells, notes=fixed_note(
              "loss costs everyone RTO stalls; NCache keeps its "
              "relative advantage because retransmitted replies are "
              "re-substituted, not re-copied")),
    Sweep("ablation_netdisk",
          "A8: network-ready on-disk format (§6), 32 KB all-miss",
          ("server", "disk_format", "throughput_mbps", "storage_cpu_pct"),
          _netdisk_cells, notes=fixed_note(
              "the network-ready disk format helps most where the "
              "storage CPU is the bottleneck — i.e. exactly when the "
              "pass-through server already runs NCache")),
)
