"""Layer kernels: one layer's public functions, called in isolation.

Each kernel builds a small fixed input, calls into one layer a fixed
number of times, and is reported in calibration units per call.  They
say *which layer* moved when a workload's host cost moves: each is tied
to the workload where that layer does most of its work (README.md).
Inputs have fixed sizes, so the work per call is the same on every
commit; the yardstick is read before and after each kernel.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Tuple

from repro.cache import CacheKernel
from repro.core.chunk import Chunk
from repro.core.keys import LbnKey
from repro.core.store import NCacheStore
from repro.fs.buffer_cache import BufferCache
from repro.fs.image import FsImage
from repro.net.buffer import (JunkPayload, VirtualPayload,
                              chain_from_payload, concat)
from repro.obs.metrics import Counter
from repro.obs.trace import TraceBus
from repro.perf.enginebench import run_engine_bench

from .calib import Yardstick

#: A kernel builds its input (untimed) and returns the loop to time; the
#: loop returns how many calls it made.
Loop = Callable[[], int]

BLOCK = 4096
MSS = 1460
UDP_FRAGMENT = 1472
RESIDENT = 4096


def _engine(name: str) -> Callable[[], Loop]:
    def build() -> Loop:
        return lambda: int(run_engine_bench([name])[0]["ops"])
    return build


def _blocks(n: int = 8) -> list:
    """``n`` block extents of distinct files (so concat cannot merge)."""
    return [VirtualPayload(100 + i, 0, BLOCK) for i in range(n)]


def _payload_slice() -> Loop:
    whole = concat(_blocks())
    offsets = range(0, whole.length - MSS, 1500)

    def loop() -> int:
        for _ in range(4000):
            for offset in offsets:
                whole.slice(offset, MSS)
        return 4000 * len(offsets)
    return loop


def _payload_split() -> Loop:
    whole = concat(_blocks())

    def loop() -> int:
        for _ in range(8000):
            whole.split(UDP_FRAGMENT)
        return 8000
    return loop


def _concat() -> Loop:
    parts = _blocks()

    def loop() -> int:
        for _ in range(60_000):
            concat(parts)
        return 60_000
    return loop


def _chain_from_payload() -> Loop:
    whole = concat(_blocks())

    def loop() -> int:
        for _ in range(6000):
            chain_from_payload(whole, UDP_FRAGMENT)
        return 6000
    return loop


class _Item:
    __slots__ = ("dirty", "pinned")

    def __init__(self) -> None:
        self.dirty = False
        self.pinned = False


def _full_kernel() -> Tuple[CacheKernel, list]:
    kernel = CacheKernel("k", RESIDENT * BLOCK, "lru")
    return kernel, [kernel.insert(i, _Item(), BLOCK)
                    for i in range(RESIDENT)]


def _cache_lookup_touch() -> Loop:
    kernel, handles = _full_kernel()

    def loop() -> int:
        for _ in range(60):
            for handle in handles:
                kernel.touch(handle)
        return 60 * RESIDENT
    return loop


def _cache_insert_evict() -> Loop:
    kernel, _ = _full_kernel()

    def loop() -> int:
        for key in range(RESIDENT, RESIDENT + 100_000):
            kernel.make_room(BLOCK, key=key)
            kernel.insert(key, _Item(), BLOCK)
        return 100_000
    return loop


def _chunk(lbn: int) -> Chunk:
    return Chunk.from_payload(LbnKey(0, lbn),
                              VirtualPayload(7, lbn * BLOCK, BLOCK), MSS)


def _full_store() -> Tuple[NCacheStore, int]:
    footprint = _chunk(0).footprint(160, 64)
    store = NCacheStore(RESIDENT * footprint, chunk_size=BLOCK)
    store.bulk_load((_chunk(i) for i in range(RESIDENT)), footprint)
    return store, footprint


def _store_lookup() -> Loop:
    store, _ = _full_store()
    keys = [LbnKey(0, i) for i in range(RESIDENT)]

    def loop() -> int:
        for _ in range(60):
            for key in keys:
                store.lookup_lbn(key)
        return 60 * RESIDENT
    return loop


def _store_insert() -> Loop:
    store, footprint = _full_store()
    chunks = [_chunk(lbn) for lbn in range(RESIDENT, RESIDENT + 40_000)]

    def loop() -> int:
        for chunk in chunks:
            store.make_room(footprint, key=chunk.key)
            store.insert(chunk)
        return len(chunks)
    return loop


def _chunk_from_payload() -> Loop:
    def loop() -> int:
        for lbn in range(150_000):
            _chunk(lbn)
        return 150_000
    return loop


def _bcache_lookup() -> Loop:
    cache = BufferCache(RESIDENT * BLOCK)
    for lbn in range(RESIDENT):
        cache.insert(lbn, JunkPayload(BLOCK))

    def loop() -> int:
        for _ in range(60):
            for lbn in range(RESIDENT):
                cache.lookup(lbn)
        return 60 * RESIDENT
    return loop


def _file_payload() -> Loop:
    image = FsImage(capacity_blocks=1 << 16)
    inode = image.create_file("k", 1024 * BLOCK)

    def loop() -> int:
        for _ in range(200):
            for block in range(1024):
                image.file_payload(inode, block * BLOCK, BLOCK)
        return 200 * 1024
    return loop


def _counter_add() -> Loop:
    counter = Counter("k")

    def loop() -> int:
        for _ in range(1_000_000):
            counter.add()
        return 1_000_000
    return loop


def _trace_emit(enabled: bool) -> Callable[[], Loop]:
    def build() -> Loop:
        bus = TraceBus()
        if enabled:
            bus.enable()
        n = 300_000 if enabled else 3_000_000

        def loop() -> int:
            # The guarded call site of the simulator's hot paths.
            for i in range(n):
                if bus.enabled:
                    bus.emit("k.event", cat="k", lbn=i)
                    if not i & 0xFFFF:
                        bus.clear()
            return n
        return loop
    return build


KERNELS: Dict[str, Callable[[], Loop]] = {
    "sim.k_timer_storm_cu": _engine("timer_storm"),
    "sim.k_packet_train_cu": _engine("packet_train"),
    "sim.k_churn_mix_cu": _engine("churn_mix"),
    "net.k_payload_slice_cu": _payload_slice,
    "net.k_payload_split_cu": _payload_split,
    "net.k_concat_cu": _concat,
    "net.k_chain_from_payload_cu": _chain_from_payload,
    "cache.k_lookup_touch_cu": _cache_lookup_touch,
    "cache.k_insert_evict_cu": _cache_insert_evict,
    "core.k_store_lookup_cu": _store_lookup,
    "core.k_store_insert_cu": _store_insert,
    "core.k_chunk_from_payload_cu": _chunk_from_payload,
    "fs.k_bcache_lookup_cu": _bcache_lookup,
    "fs.k_file_payload_cu": _file_payload,
    "obs.k_counter_add_cu": _counter_add,
    "obs.k_trace_emit_off_cu": _trace_emit(False),
    "obs.k_trace_emit_on_cu": _trace_emit(True),
}


def run_kernels(yardstick: Yardstick) -> Dict[str, float]:
    """Every kernel's cost in calibration units per call."""
    out: Dict[str, float] = {}
    before = yardstick.read(passes=4)
    for name, build in KERNELS.items():
        loop = build()
        t0 = perf_counter()
        calls = loop()
        elapsed = perf_counter() - t0
        after = yardstick.read(passes=4)
        out[name] = elapsed / calls / ((before + after) / 2)
        before = after
    return out
