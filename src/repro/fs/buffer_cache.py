"""The file-system buffer/page cache (Linux page-cache analog).

A recency-managed cache of fixed-size blocks keyed by LBN.  Under NCache
the entries hold :class:`~repro.core.keys.KeyedPayload` placeholders
("the retrieved block contains only a key and some 'junk' data", §3.2) —
but they still occupy a full page each, which is exactly the
double-buffering problem the paper controls by *limiting this cache's
size* (§3.4/§4.1): under NCache its budget is fixed at configuration
(``TestbedConfig.fs_cache_bytes``) and never moves.

Eviction follows the paper: "first clean buffers are reclaimed and then
dirty buffers are flushed and reclaimed".  The cache itself never performs
I/O: :meth:`make_room` hands a dirty victim back, still resident, to the
caller (the VFS), which writes it back through the block device and
calls again — under NCache that writeback is what triggers FHO→LBN
*remapping*.

The cache is a thin adapter over the unified :mod:`repro.cache` eviction
kernel (DESIGN.md §9): the kernel owns the byte budget, recency order
(``clean_first`` victim preference, page-lock pinning) and the
``cache.bcache.*`` metrics — the only hit/miss/eviction counters; this
class keeps the LBN index, the ``bcache.*`` trace events and the
sanitizer hook.  A :class:`CacheEntry` is its own kernel handle: a page
is resident exactly while it is in the kernel's recency list, so the
cache holds two records per page (index slot, recency-list slot) and
no third.  When only pinned pages remain the reclaim loop cannot
make progress — the kernel emits a ``bcache.evict_stalled`` trace event
and raises :class:`~repro.cache.CacheStallError` (a RuntimeError)
instead of silently spinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..cache import CacheKernel
from ..check import sanitizer as _sanitizer
from ..net.buffer import Payload
from ..obs.trace import TraceBus
from ..sim.stats import CounterSet
from .disk import BLOCK_SIZE


@dataclass(slots=True, eq=False)
class CacheEntry:
    """One cached block, and its own eviction-kernel handle.

    Slotted: warmed full-mode caches hold tens of thousands of entries,
    and the per-instance ``__dict__`` was measurable in the grid's heap
    profile.  ``eq=False`` keeps identity hashing, which the kernel's
    recency list keys on.
    """

    lbn: int
    payload: Payload
    dirty: bool = False
    is_metadata: bool = False
    #: page-lock count: pinned pages are skipped by eviction, exactly like
    #: locked pages during in-flight I/O in a real kernel.
    pins: int = 0

    @property
    def pinned(self) -> bool:
        return self.pins > 0

    @property
    def size(self) -> int:
        return BLOCK_SIZE


class BufferCache:
    """Page cache with byte capacity and clean-first eviction."""

    def __init__(self, capacity_bytes: int, block_size: int = BLOCK_SIZE,
                 counters: Optional[CounterSet] = None,
                 trace: Optional[TraceBus] = None) -> None:
        if capacity_bytes < block_size:
            raise ValueError("cache smaller than one block")
        self.block_size = block_size
        self.counters = counters if counters is not None else CounterSet()
        #: structured trace bus — optional so the cache stays standalone.
        self.trace = trace
        self._entries: Dict[int, CacheEntry] = {}
        self._kernel = CacheKernel(
            "bcache", capacity_bytes, clean_first=True,
            counters=self.counters, trace=trace,
            stall_event="bcache.evict_stalled", trace_cat="fs")
        self._lookup = self._kernel.lookup_in(self._entries)

    # -- inspection ---------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._kernel.capacity_bytes

    @capacity_bytes.setter
    def capacity_bytes(self, nbytes: int) -> None:
        # No immediate eviction: an over-budget cache sheds entries at
        # the next make_room, exactly as before the kernel refactor.
        self._kernel.capacity_bytes = nbytes

    @property
    def used_bytes(self) -> int:
        return len(self._entries) * self.block_size

    @property
    def capacity_blocks(self) -> int:
        return self.capacity_bytes // self.block_size

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, lbn: int) -> bool:
        return lbn in self._entries

    def dirty_lbns(self, limit: Optional[int] = None) -> Iterator[int]:
        """Dirty blocks, coldest (best victim) first, at most ``limit``
        of them.  Lazy: the scan of the recency list stops at the
        ``limit``-th dirty page."""
        return islice((entry.lbn for entry in self._kernel.items()
                       if entry.dirty), limit)

    # -- lookup / insert ------------------------------------------------------

    def lookup(self, lbn: int) -> Optional[CacheEntry]:
        """The accounted lookup (cache traffic): a hit counts and
        promotes, a miss counts."""
        entry = self._lookup(lbn)
        if self.trace is not None and self.trace.enabled:
            self.trace.emit(
                "bcache.hit" if entry is not None else "bcache.miss",
                cat="fs", lbn=lbn)
        return entry

    def peek(self, lbn: int) -> Optional[CacheEntry]:
        """Lookup without recency side effects or hit/miss accounting."""
        return self._entries.get(lbn)

    def make_room(self, nblocks: int = 1) -> List[CacheEntry]:
        """Evict until ``nblocks`` fit, or stop at a dirty victim.

        Clean victims are reclaimed silently (coldest first); a dirty
        victim stays resident, findable by every lookup, and is returned
        for the caller to write back before it calls again (write back
        first, then evict clean).  An empty list means the room is made.
        When every remaining page is pinned the kernel emits
        ``bcache.evict_stalled`` and raises
        :class:`~repro.cache.CacheStallError`.
        """
        return self._kernel.make_room(nblocks * self.block_size,
                                      on_evict=self._evicted)

    def _evicted(self, entry: CacheEntry) -> None:
        del self._entries[entry.lbn]
        if self.trace is not None and self.trace.enabled:
            self.trace.emit("bcache.evict", cat="fs", lbn=entry.lbn,
                            dirty=entry.dirty)

    def pin(self, lbn: int) -> bool:
        """Page-lock a block against eviction; True if it was present."""
        entry = self._entries.get(lbn)
        if entry is None:
            return False
        entry.pins += 1
        return True

    def unpin(self, lbn: int) -> None:
        entry = self._entries.get(lbn)
        if entry is None or entry.pins <= 0:
            raise RuntimeError(f"unpin of unpinned block {lbn}")
        entry.pins -= 1

    def insert(self, lbn: int, payload: Payload, dirty: bool = False,
               is_metadata: bool = False) -> CacheEntry:
        """Insert or replace a block; caller must have made room first."""
        # len()-based arithmetic, not the properties: this path runs once
        # per block entering the cache.
        if self._kernel.capacity_bytes - len(self._entries) * self.block_size \
                < self.block_size and lbn not in self._entries:
            raise RuntimeError(
                "insert without room; call make_room() and flush victims")
        san = _sanitizer.active()
        if san is not None:
            san.fs_page_inserted(lbn, payload)
        old = self._entries.get(lbn)
        if old is not None:
            self._kernel.remove(old)
        entry = CacheEntry(lbn=lbn, payload=payload, dirty=dirty,
                           is_metadata=is_metadata)
        self._kernel.insert(lbn, entry, self.block_size)
        self._entries[lbn] = entry
        return entry

    def bulk_load(self, pages: Iterable[Tuple[int, Payload]]) -> None:
        """Warm-start fast path: :meth:`make_room` + :meth:`insert` per
        ``(lbn, payload)`` page, coldest first, for clean data pages not
        yet resident (the contract of ``NCacheStore.bulk_load``).
        Evictions are the general path's; a dirty victim is a caller
        bug and raises, as does a resident ``lbn``.  The free budget is
        read once per eviction, not once per page."""
        kernel = self._kernel
        entries = self._entries
        block_size = self.block_size
        san = _sanitizer.active()
        room = kernel.free_bytes
        for lbn, payload in pages:
            if lbn in entries:
                raise ValueError(f"bulk_load of resident block {lbn}")
            if room < block_size:
                if kernel.make_room(block_size, on_evict=self._evicted):
                    raise RuntimeError("dirty victim during warm start")
                room = kernel.free_bytes
            room -= block_size
            if san is not None:
                san.fs_page_inserted(lbn, payload)
            entry = CacheEntry(lbn, payload)
            kernel.insert(lbn, entry, block_size)
            entries[lbn] = entry

    # -- state changes -----------------------------------------------------------

    def invalidate(self, lbn: int) -> None:
        entry = self._entries.pop(lbn, None)
        if entry is not None:
            self._kernel.remove(entry)

    def clear(self) -> None:
        self._entries.clear()
        self._kernel.clear()

    def hit_ratio(self) -> float:
        hits = self._kernel.metrics.hit.value
        total = hits + self._kernel.metrics.miss.value
        return hits / total if total else 0.0
