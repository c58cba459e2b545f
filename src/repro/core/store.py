"""The network-centric cache store: LBN cache + FHO cache + shared LRU.

"The network-centric cache in an NFS server is decomposed into two parts:
an LBN cache and an FHO cache, because there are two sources of data"
(§3.4).  Both caches share one recency list of chunks and one memory
budget (the pinned network-buffer pool).  Replacement is the paper's
classic LRU: touch moves a chunk to the tail; reclamation takes
from the head; clean chunks are freed, dirty chunks are written back
first (the store hands a dirty victim, still resident, to the caller,
which owns the I/O path).  Recency/eviction bookkeeping is delegated to
the unified :mod:`repro.cache` kernel (DESIGN.md §9); the budget is
fixed at configuration (``TestbedConfig.ncache_capacity_bytes``) and
moves only through :meth:`NCacheStore.cold_restart`.

Beyond the paper's text, the store completes the design with two pieces of
necessary engineering, both flagged in DESIGN.md:

* **pinning** — chunks referenced by an in-flight reply, flush or fill
  cannot be reclaimed out from under it: the NCache module pins them
  and the TX hook or the fill unpins them (``NCacheModule.pin_keys``).
  Eviction and :meth:`cold_restart` skip a pinned chunk; a newer chunk
  replacing it under its key (:meth:`insert`'s overwrite, :meth:`remap`'s
  stale removal) drops it all the same and inherits its pins, since the
  holders' key now resolves to the newer one (``Chunk.heir``);
* **reclaim notification** — when a chunk disappears, any file-system
  cache page still holding its key is invalidated (otherwise a later read
  hit would dereference a dangling key).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..cache import CacheKernel, CacheStallError
from ..check import sanitizer as _sanitizer
from ..obs.trace import TraceBus
from ..sim.stats import CounterSet
from .chunk import Chunk, ChunkKey
from .keys import FhoKey


class NCacheStore:
    """Memory-bounded chunk store with LBN and FHO indexes."""

    def __init__(self, capacity_bytes: int, chunk_size: int = 4096,
                 per_buffer_overhead: int = 160,
                 per_chunk_overhead: int = 64,
                 counters: Optional[CounterSet] = None,
                 trace: Optional[TraceBus] = None) -> None:
        if capacity_bytes < chunk_size:
            raise ValueError("capacity smaller than one chunk")
        self.chunk_size = chunk_size
        self.per_buffer_overhead = per_buffer_overhead
        self.per_chunk_overhead = per_chunk_overhead
        self.counters = counters if counters is not None else CounterSet()
        #: structured trace bus (owned by the simulator) — optional so the
        #: store stays usable standalone in unit tests.
        self.trace = trace
        self._used_gauge = self.counters.registry.gauge(
            "ncache.used.bytes", unit="bytes")
        self._lbn: Dict[int, Chunk] = {}
        self._fho: Dict[FhoKey, Chunk] = {}
        self._kernel = CacheKernel("ncache", capacity_bytes,
                                   counters=self.counters, trace=trace)
        #: The accounted lookups (cache traffic), one per index, as the
        #: kernel's closures: a hit counts and promotes, a miss counts.
        self.lookup_lbn: Callable[[int], Optional[Chunk]] = \
            self._kernel.lookup_in(self._lbn)
        self.lookup_fho: Callable[[FhoKey], Optional[Chunk]] = \
            self._kernel.lookup_in(self._fho)
        #: callbacks ``fn(chunk)`` invoked when a chunk leaves the store.
        self.reclaim_listeners: List[Callable[[Chunk], None]] = []

    # -- inspection ------------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._kernel.capacity_bytes

    @capacity_bytes.setter
    def capacity_bytes(self, nbytes: int) -> None:
        # No immediate eviction: an over-budget store sheds chunks at
        # the next make_room, exactly as before the kernel refactor.
        self._kernel.capacity_bytes = nbytes

    @property
    def used_bytes(self) -> int:
        return self._kernel.used_bytes

    @property
    def n_chunks(self) -> int:
        return len(self._kernel)

    @property
    def n_lbn(self) -> int:
        return len(self._lbn)

    @property
    def n_fho(self) -> int:
        return len(self._fho)

    def chunks(self) -> Iterator[Chunk]:
        """Resident chunks in eviction order (cold to hot) — the public
        replacement-order view the property battery compares against its
        reference models."""
        return self._kernel.items()

    def dirty_chunks(self) -> List[Chunk]:
        return [c for c in self.chunks() if c.dirty]

    def _footprint(self, chunk: Chunk) -> int:
        return chunk.footprint(self.per_buffer_overhead,
                               self.per_chunk_overhead)

    # -- lookup -----------------------------------------------------------------

    def resolve(self, fho_key: Optional[FhoKey], lbn_key: Optional[int]
                ) -> Optional[Chunk]:
        """FHO-first lookup: dirty written data always wins (§3.4)."""
        chunk = None
        if fho_key is not None:
            chunk = self.lookup_fho(fho_key)
        if chunk is None and lbn_key is not None:
            chunk = self.lookup_lbn(lbn_key)
        return chunk

    # Bookkeeping reads: no counter, no promotion.

    def peek_lbn(self, key: int) -> Optional[Chunk]:
        return self._lbn.get(key)

    def peek_fho(self, key: FhoKey) -> Optional[Chunk]:
        return self._fho.get(key)

    def peek(self, fho_key: Optional[FhoKey], lbn_key: Optional[int]
             ) -> Optional[Chunk]:
        """:meth:`resolve` as a bookkeeping read (FHO first)."""
        chunk = self._fho.get(fho_key)
        return chunk if chunk is not None else self._lbn.get(lbn_key)

    # -- insertion / eviction ------------------------------------------------------

    def make_room(self, nbytes: int,
                  key: Optional[ChunkKey] = None) -> List[Chunk]:
        """Evict chunks until ``nbytes`` fit, or stop at a dirty victim.

        Pinned chunks are skipped.  Every evicted chunk is removed from
        both indexes and announced to reclaim listeners; a dirty victim
        is not evicted but returned, still resident, for the caller to
        write back before it calls again.  ``key`` is unused; it stays
        because the benchmark passes it.

        Raises :class:`~repro.cache.CacheStallError` (a RuntimeError)
        when every resident chunk is pinned.
        """
        return self._kernel.make_room(nbytes, on_evict=self._evicted)

    def resize(self, new_capacity_bytes: int) -> List[Chunk]:
        """Shrink/grow the byte budget; returns a dirty victim exactly
        like :meth:`make_room`.  :meth:`cold_restart` is the only
        caller in the model (the benchmark names it too)."""
        self._kernel.capacity_bytes = new_capacity_bytes
        return self.make_room(0)

    def cold_restart(self) -> None:
        """Drop the entire contents.

        The crash-rejoin semantics (DESIGN.md §10): dirty chunks are
        lost (nothing left to write back), and the budget is restored
        afterwards.  The chunks an in-flight reply pins stay until it
        has left.
        """
        for chunk in self.dirty_chunks():
            chunk.dirty = False
        capacity = self.capacity_bytes
        try:
            self.resize(0)
        except CacheStallError:
            pass  # pinned stragglers shed at the next make_room
        self.capacity_bytes = capacity

    def _evicted(self, chunk: Chunk) -> None:
        """Consumer-side bookkeeping after the kernel dropped a chunk
        (evicted, overwritten, remapped over or invalidated)."""
        self._used_gauge.set(self._kernel.used_bytes)
        # Pop the index entry only if it still points at this chunk — a
        # remap may already have installed a replacement under this key.
        index = self._fho if type(chunk.key) is FhoKey else self._lbn
        if index.get(chunk.key) is chunk:
            del index[chunk.key]
        if self.trace is not None and self.trace.enabled:
            self.trace.emit("ncache.evict", cat="ncache",
                            key=str(chunk.key), dirty=chunk.dirty)
        san = _sanitizer.active()
        if san is not None:
            san.chunk_evicted(chunk)
        for listener in self.reclaim_listeners:
            listener(chunk)

    def _fits(self, footprint: int, existing: Optional[Chunk]) -> bool:
        freed = self._footprint(existing) if existing is not None else 0
        return self._kernel.free_bytes + freed >= footprint

    def insert(self, chunk: Chunk, *,
               footprint: Optional[int] = None) -> None:
        """Insert a chunk under its key, replacing any existing entry.

        Replacement of an FHO entry by a newer write is the *overwritten*
        path; caller must have called :meth:`make_room` first — and may
        hand back the ``footprint`` it sized the chunk at for that call.
        The new mapping is installed *before* the stale chunk is
        reclaimed so reclaim listeners observe the block as still
        resolvable — the same ordering rule as :meth:`remap`.
        """
        if footprint is None:
            footprint = self._footprint(chunk)
        index = self._fho if type(chunk.key) is FhoKey else self._lbn
        existing = index.get(chunk.key)
        if not self._fits(footprint, existing):
            raise RuntimeError("insert without room; call make_room() first")
        if existing is chunk:
            return  # already resident under this key; nothing to do
        self._kernel.insert(chunk.key, chunk, footprint)
        self._used_gauge.set(self._kernel.used_bytes)
        index[chunk.key] = chunk
        if existing is not None:
            existing.bequeath(chunk)
            self._kernel.remove(existing)
            self._evicted(existing)
            self.counters.add("ncache.overwrite")
        san = _sanitizer.active()
        if san is not None:
            # After the stale removal, so the key reads as live again.
            san.chunk_cached(chunk)

    def bulk_load(self, chunks: Iterable[Chunk], footprint: int) -> None:
        """Warm-start fast path: insert fresh clean chunks coldest-first.

        Equivalent to :meth:`make_room` + :meth:`insert` per chunk for
        chunks that (a) are clean, (b) share one uniform ``footprint``
        and (c) are not yet resident under their key — exactly the
        warm-start shape — minus the per-insert work those properties
        make redundant (footprint recomputation, replacing the old
        entry, a used-gauge refresh per chunk).  Evictions behave
        exactly as on the general path; a dirty victim is a caller bug
        and raises, as does a resident key (the old chunk would stay in
        the kernel, holding budget, with no index entry).  The free
        budget is read once per eviction, not once per chunk.
        """
        kernel = self._kernel
        san = _sanitizer.active()
        room = kernel.free_bytes
        for chunk in chunks:
            key = chunk.key
            index = self._fho if type(key) is FhoKey else self._lbn
            if key in index:
                raise ValueError(f"bulk_load of resident key {key}")
            if room < footprint:
                if kernel.make_room(footprint, on_evict=self._evicted):
                    raise RuntimeError("dirty victim during warm start")
                room = kernel.free_bytes
            room -= footprint
            kernel.insert(key, chunk, footprint)
            index[key] = chunk
            if san is not None:
                san.chunk_cached(chunk)
        self._used_gauge.set(kernel.used_bytes)

    def drop(self, chunk: Chunk) -> None:
        """Explicitly remove a chunk (invalidation)."""
        if chunk in self._kernel:
            self._kernel.remove(chunk)
            self._evicted(chunk)

    # -- remapping -------------------------------------------------------------------

    def remap(self, fho_key: FhoKey, lbn_key: int) -> Optional[Chunk]:
        """Convert an FHO entry to an LBN entry (§3.4).

        The chunk's key changes from the FHO to the LBN; an existing LBN
        entry with the same key is overwritten ("data in the FHO cache is
        always more up-to-date").  The chunk is marked clean: remapping
        happens while the block is being flushed to stable storage.
        Returns the remapped chunk, or None if the FHO entry is gone.
        """
        chunk = self._fho.pop(fho_key, None)
        if chunk is None:
            return None
        stale = self._lbn.get(lbn_key)
        chunk.key = lbn_key
        chunk.dirty = False
        # The block's identity changed (file-relative -> disk-relative):
        # restamp the chunk's extent views at a new generation so stale
        # pre-remap views are distinguishable without byte comparison.
        chunk.bump_generation()
        self._lbn[lbn_key] = chunk  # installed before the stale removal so
        # reclaim listeners observe the block as still resolvable
        if stale is not None and stale is not chunk:
            stale.bequeath(chunk)
            self._kernel.remove(stale)
            self._evicted(stale)
            self.counters.add("ncache.remap_overwrite")
        self.counters.add("ncache.remap")
        san = _sanitizer.active()
        if san is not None:
            san.chunk_remapped(chunk, fho_key)
        return chunk
