"""Shared experiment machinery: the measurement protocol, warm-start,
durations.

Every cell of every sweep is described by a
:class:`~repro.servers.spec.TestbedSpec` (or ``ClusterSpec``), built by
its ``build()``, and run by :func:`measure`: set up, warm, start the
load, warm up, reset meters, measure.  :func:`measure_segments` is the
same protocol with the measured window cut into named segments.
``quick=True`` (the default for tests and CI) shrinks the simulated
windows — and, for the cache-geometry experiments, the memory sizes,
keeping all *ratios* intact while cutting wall-clock time.

Warm-start (:func:`warm_caches`) pre-populates the server's caches with a
ranked file set directly, instead of simulating tens of seconds of cache
fill: measurements start from the steady state the paper measures in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.chunk import Chunk
from ..core.keys import KeyedPayload, LbnKey
from ..net.buffer import JunkPayload
from ..servers.config import MB, ServerMode

ALL_MODES = (ServerMode.ORIGINAL, ServerMode.BASELINE, ServerMode.NCACHE)

#: Request sizes of Figures 4 and 5.
NFS_REQUEST_SIZES = (4096, 8192, 16384, 32768)
#: Request sizes of Figure 6(b).
WEB_REQUEST_SIZES = (16384, 32768, 65536, 131072)


@dataclass(frozen=True)
class Protocol:
    """Measurement windows (simulated seconds)."""

    warmup_s: float
    measure_s: float


QUICK = Protocol(warmup_s=0.15, measure_s=0.35)
FULL = Protocol(warmup_s=0.4, measure_s=1.0)


def protocol(quick: bool) -> Protocol:
    """The measurement windows for quick or full mode."""
    return QUICK if quick else FULL


def measure(target: Any, workload: Any, quick: bool, *,
            ranked: Optional[Sequence[str]] = None,
            before_load: Optional[Callable[[], None]] = None,
            reports: Optional[Dict[str, Any]] = None,
            key: str = "") -> None:
    """Run the measurement protocol on a built, workload-bound target.

    Set up the sessions; warm the caches — :func:`warm_caches` over
    ``ranked`` (hottest first) when given, else the workload's own
    ``prewarm()`` if it has one; call ``before_load`` (the one step an
    experiment may put between a warm cache and the load: A7 turns packet
    loss on there); start the load; run the warm-up window, zero every
    meter, run the measurement window.  With ``reports``, the target's
    metrics snapshot is stored under ``key``.
    """
    proto = protocol(quick)
    target.setup()
    if ranked is not None:
        warm_caches(target, ranked)
    else:
        workload.warm()
    if before_load is not None:
        before_load()
    workload.start()
    target.warmup_then_measure(proto.warmup_s, proto.measure_s)
    if reports is not None:
        reports[key] = target.metrics_snapshot()


def measure_segments(target: Any, workload: Any, warm_end: float,
                     segments: Sequence[Tuple[str, float]],
                     backend: Callable[[], float], *,
                     ranked: Optional[Sequence[str]] = None,
                     relative: bool = False
                     ) -> Dict[str, Dict[str, float]]:
    """:func:`measure` with the measured window cut into named segments.

    ``warm_end`` and each segment's end are absolute simulated times —
    what a churn schedule or a phase-shifting workload is written
    against — or, with ``relative``, lengths counted from the previous
    boundary.  ``backend`` reads a lifetime total (it is not zeroed at
    the end of warm-up); each segment records how far it and the
    completed-operation count moved: ``{"backend": ..., "ops": ...}``.
    """
    sim = target.sim

    def at(when: float) -> float:
        return sim.now + when if relative else when

    def totals() -> Tuple[float, float]:
        # Read the fleet's testbeds each time: a join grows the list.
        return backend(), sum(tb.meters.throughput.ops.value
                              for tb in getattr(target, "testbeds",
                                                [target]))

    target.setup()
    if ranked is not None:
        warm_caches(target, ranked)
    workload.run(until=at(warm_end))
    target.reset_measurements()
    measured: Dict[str, Dict[str, float]] = {}
    backend_mark, ops_mark = totals()
    for name, until in segments:
        sim.run(until=at(until))
        backend_now, ops_now = totals()
        measured[name] = {"backend": backend_now - backend_mark,
                          "ops": ops_now - ops_mark}
        backend_mark, ops_mark = backend_now, ops_now
    return measured


def per_kop(segment: Dict[str, float]) -> float:
    """Backend reads per 1000 operations over one measured segment."""
    if not segment["ops"]:
        return 0.0
    return 1000.0 * segment["backend"] / segment["ops"]


def warm_caches(testbed, ranked_names: Sequence[str]) -> None:
    """Pre-populate server caches with files, hottest last (MRU).

    ``ranked_names`` is hottest-first; insertion is coldest-first so the
    LRU order after warm-start matches a long-running steady state.  Only
    what fits stays resident, exactly as eviction would leave it.
    """
    mode = testbed.config.mode
    image = testbed.image
    block_size = image.block_size
    if mode is ServerMode.NCACHE:
        _warm_ncache(testbed, ranked_names)
        return
    # Original/baseline: fill the file-system buffer cache.
    cache = testbed.cache
    capacity = cache.capacity_blocks
    # Collect (hottest-first) blocks until the cache is full.
    blocks: List[tuple] = []
    for name in ranked_names:
        inode = image.lookup(name)
        for b in range(inode.nblocks):
            if len(blocks) >= capacity:
                break
            blocks.append((inode, b))
        if len(blocks) >= capacity:
            break
    for inode, b in reversed(blocks):  # coldest first
        lbn = inode.block_lbn(b)
        if mode is ServerMode.BASELINE:
            payload = JunkPayload(block_size)
        else:
            # All warm blocks are file data, so build the virtual
            # payload directly instead of re-deriving the owner from
            # the LBN (a bisect per block; warm-start fills tens of
            # thousands).
            payload = image.file_payload(inode, b * block_size,
                                         block_size)
        cache.make_room(1)
        cache.insert(lbn, payload)


def _warm_ncache(testbed, ranked_names: Sequence[str]) -> None:
    """NCache warm-start: chunks in the LBN cache, keys in the FS cache."""
    image = testbed.image
    store = testbed.ncache.store
    block_size = image.block_size
    mss = testbed.config.costs.tcp_mss
    lun = testbed.ncache.lun
    # Budget in chunk footprints.
    sample_chunk = Chunk.from_payload(LbnKey(lun, 0),
                                      JunkPayload(block_size), mss)
    footprint = sample_chunk.footprint(store.per_buffer_overhead,
                                       store.per_chunk_overhead)
    capacity = store.capacity_bytes // footprint
    blocks: List[tuple] = []
    for name in ranked_names:
        inode = image.lookup(name)
        for b in range(inode.nblocks):
            if len(blocks) >= capacity:
                break
            blocks.append((inode, b))
        if len(blocks) >= capacity:
            break
    def warm_chunks():
        for inode, b in reversed(blocks):
            lbn = inode.block_lbn(b)
            # All warm blocks are file data: build the virtual payload
            # directly rather than re-deriving the owner from the LBN.
            payload = image.file_payload(inode, b * block_size,
                                         block_size)
            # Compact chunks: one extent descriptor per block; the
            # buffer list (with csum_known set, as if the block arrived
            # over the wire and was verified) only springs into
            # existence for blocks the workload actually touches.
            yield Chunk.from_payload(LbnKey(lun, lbn), payload, mss,
                                     csum_known=True)

    store.bulk_load(warm_chunks(), footprint)
    # FS cache: hottest blocks as key-only pages.
    fs_capacity = testbed.cache.capacity_blocks
    for inode, b in reversed(blocks[:fs_capacity]):
        lbn = inode.block_lbn(b)
        testbed.cache.make_room(1)
        testbed.cache.insert(
            lbn, KeyedPayload(block_size, lbn_key=LbnKey(lun, lbn)))


def scaled_memory_config(scale: int = 1) -> dict:
    """Config overrides shrinking the server memory geometry by ``scale``.

    All cache-size ratios (RAM : carve-out : FS cache) are preserved, so
    working-set sweeps keep their shape while quick runs stay small.
    """
    if scale == 1:
        return {}
    return {
        "server_ram_bytes": 896 * MB // scale,
        "server_kernel_carveout": 96 * MB // scale,
        "ncache_fs_cache_bytes": 64 * MB // scale,
    }
