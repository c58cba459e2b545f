"""Warm start one block at a time: the oracle for the bulk pass.

``repro.experiments.common.warm_caches`` was these loops — a list of
``(inode, block)`` pairs, then ``make_room`` + ``insert`` per block on
the general path — until it became one coldest-first bulk pass over
``(inode, n_blocks)`` runs (``BufferCache.bulk_load`` /
``NCacheStore.bulk_load``).  They are kept here, unoptimised, as the
reference ``tests/test_warm_start.py`` compares the bulk pass against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.core.chunk import Chunk
from repro.core.keys import KeyedPayload
from repro.net.buffer import (BufferFlavor, ExtentPayload, JunkPayload,
                              SegmentShape)
from repro.servers.config import ServerMode


def hottest_blocks(image, ranked_names: Sequence[str],
                   capacity: int) -> List[tuple]:
    """The first ``capacity`` (inode, block) pairs, hottest file first."""
    blocks: List[tuple] = []
    for name in ranked_names:
        inode = image.lookup(name)
        for b in range(inode.nblocks):
            if len(blocks) >= capacity:
                return blocks
            blocks.append((inode, b))
    return blocks


def warm_caches_reference(testbed, ranked_names: Sequence[str]) -> None:
    """``warm_caches`` through ``make_room`` + ``insert`` per block."""
    mode = testbed.config.mode
    image = testbed.image
    block_size = image.block_size
    cache = testbed.cache
    if mode is not ServerMode.NCACHE:
        blocks = hottest_blocks(image, ranked_names, cache.capacity_blocks)
        for inode, b in reversed(blocks):  # coldest first
            if mode is ServerMode.BASELINE:
                payload = JunkPayload(block_size)
            else:
                payload = image.file_payload(inode, b * block_size,
                                             block_size)
            cache.make_room(1)
            cache.insert(inode.block_lbn(b), payload)
        return
    store = testbed.ncache.store
    shape = SegmentShape.uniform(block_size, testbed.config.costs.tcp_mss,
                                 True, BufferFlavor.SK_BUFF)
    footprint = Chunk(0, JunkPayload(block_size), shape) \
        .footprint(store.per_buffer_overhead, store.per_chunk_overhead)
    blocks = hottest_blocks(image, ranked_names,
                            store.capacity_bytes // footprint)
    for inode, b in reversed(blocks):
        key = inode.block_lbn(b)
        assert not store.make_room(footprint, key=key)
        store.insert(Chunk(key, image.file_payload(
            inode, b * block_size, block_size), shape))
    for inode, b in reversed(blocks[:cache.capacity_blocks]):
        lbn = inode.block_lbn(b)
        cache.make_room(1)
        cache.insert(lbn, KeyedPayload(block_size, lbn_key=lbn))


# -- what the two warm starts are compared on --------------------------------

def describe_payload(payload: Any) -> Tuple:
    """A payload as a value: its kind and everything it was built from."""
    if type(payload) is ExtentPayload:
        return ("extent", payload.source, payload.offset, payload.length,
                payload.generation, payload.mem)
    if type(payload) is KeyedPayload:
        return ("keyed", payload.length, payload.lbn_key, payload.fho_key,
                payload.base_offset)
    return (type(payload).__name__, payload.length)


def _kernel_state(kernel) -> Dict[str, Any]:
    """Budget, counters and the recency list's sizes, coldest first
    (the items themselves are compared by the caller)."""
    metrics = kernel.metrics
    return {"used_bytes": kernel.used_bytes,
            "counters": {name: getattr(metrics, name).value
                         for name in type(metrics).__slots__},
            "sizes": list(kernel._order.values())}


def cache_state(testbed) -> Dict[str, Any]:
    """Everything warm start leaves behind in the server's caches."""
    cache = testbed.cache
    state = {"fs": _kernel_state(cache._kernel),
             "fs.used_bytes": cache.used_bytes,
             "fs.index": sorted(cache._entries),
             "fs.pages": [
                 (entry.lbn, describe_payload(entry.payload), entry.dirty,
                  entry.is_metadata, entry.pins)
                 for entry in cache._kernel.items()]}
    if testbed.ncache is not None:
        store = testbed.ncache.store
        state.update({
            "ncache": _kernel_state(store._kernel),
            "ncache.gauge": store._used_gauge.value,
            "ncache.index": sorted(store._lbn) + sorted(store._fho),
            "ncache.chunks": [
                (chunk.key, describe_payload(chunk.payload()), chunk.dirty,
                 chunk.pins, chunk._shape, chunk.peek_buffers())
                for chunk in store.chunks()]})
    return state
