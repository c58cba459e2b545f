"""The eviction kernel: one budgeted entry table, any policy.

:class:`CacheKernel` owns what both of the repo's caches used to
hand-roll separately: a byte budget, an entry table keyed by **monotonic
handles** (allocated once, never reused — unlike ``id()``, which the
allocator recycles after GC and which silently corrupted LRU order in
long sweeps), victim selection that skips pinned entries (with optional
clean-first preference, §3.4: "first clean buffers are reclaimed and
then dirty buffers are flushed and reclaimed"), and the
``cache.<name>.*`` metric family.

The kernel stores opaque items; it only requires them to expose
``dirty``, ``pinned`` and ``cache_handle`` attributes (chunks and
page-cache entries both do).  The key indexes (LBN/FHO maps; the
accounted lookup over one is :meth:`CacheKernel.lookup_in`), traces,
sanitizer hooks and reclaim listeners remain with the consumer — the
``on_evict`` callback runs per victim *before* the next victim is
chosen, so listeners observe exactly the intermediate states the
pre-kernel stores produced.

The budget operation (:meth:`resize`) lets one cache squeeze another at
runtime — the "NCache pins most of memory and keeps the FS cache
deliberately small" protocol of §3.4/§4.1 expressed as a kernel-level
contract instead of static configuration.  Outside ``repro.cache`` it
must be reached through a :class:`~repro.cache.arbiter.MemoryArbiter`
lease (the ``budget-lease`` lint rule enforces the seam).

Two arbiter-facing hooks live here because they need the eviction loop
and the metric family: :meth:`set_ghost_admit` filters which victims may
leave a ghost (so placeholder entries whose data lives in a downstream
cache don't inflate this cache's miss-value signal), and
:class:`BudgetWindow` turns the monotonic kernel counters into per-tick
deltas for the feedback controller.
"""

from __future__ import annotations

from typing import (Any, Callable, Hashable, Iterator, List, Mapping,
                    NoReturn, Optional, Tuple)

from ..obs.metrics import Counter, MetricsRegistry
from ..obs.trace import TraceBus
from ..sim.stats import CounterSet
from .policy import Policy, make_policy


class CacheStallError(RuntimeError):
    """Raised when eviction must make progress but every entry is pinned
    (or otherwise inadmissible).  A ``RuntimeError`` subclass so existing
    callers that treated the stall as fatal keep working unchanged."""


class KernelMetrics:
    """The ``cache.<name>.*`` metric family, resolved once at startup."""

    __slots__ = ("hit", "miss", "evict_clean", "evict_dirty", "ghost_hit")

    def __init__(self, hit: Counter, miss: Counter, evict_clean: Counter,
                 evict_dirty: Counter, ghost_hit: Counter) -> None:
        self.hit = hit
        self.miss = miss
        self.evict_clean = evict_clean
        self.evict_dirty = evict_dirty
        self.ghost_hit = ghost_hit

    @classmethod
    def declare(cls, registry: MetricsRegistry, name: str) -> "KernelMetrics":
        return cls(
            hit=registry.counter(f"cache.{name}.hit"),
            miss=registry.counter(f"cache.{name}.miss"),
            evict_clean=registry.counter(f"cache.{name}.evict_clean"),
            evict_dirty=registry.counter(f"cache.{name}.evict_dirty"),
            ghost_hit=registry.counter(f"cache.{name}.ghost_hit"),
        )


#: One live cache entry: ``(key, item, nbytes)``.  A plain tuple — the
#: insert path runs once per block entering the cache, and a tuple
#: allocates in C with no ``__init__`` frame.
_Entry = Tuple[Hashable, Any, int]


class CacheKernel:
    """Budgeted entry table with pluggable replacement; see module doc."""

    def __init__(self, name: str, capacity_bytes: int,
                 policy: str = "lru", *,
                 clean_first: bool = False,
                 counters: Optional[CounterSet] = None,
                 trace: Optional[TraceBus] = None,
                 stall_event: Optional[str] = None,
                 trace_cat: str = "cache") -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.policy: Policy = make_policy(policy)
        self.clean_first = clean_first
        self.counters = counters if counters is not None else CounterSet()
        self.trace = trace
        self.metrics = KernelMetrics.declare(self.counters.registry, name)
        self._stall_event = stall_event
        self._trace_cat = trace_cat
        self._entries: dict[int, _Entry] = {}
        self._used = 0
        self._next_handle = 1
        # Hot path: insert/evict run once per block entering or leaving
        # the cache; bind the policy methods once to skip the chains.
        self._policy_insert = self.policy.insert
        self._policy_evicted = self.policy.evicted
        # None = every victim ghost-records (seed behavior, also what
        # ARC's B1/B2 adaptation relies on); the arbiter installs a
        # predicate only when running an adaptive controller.
        self._ghost_admit: Optional[Callable[[Any], bool]] = None

    # -- inspection ---------------------------------------------------------

    @property
    def policy_name(self) -> str:
        return self.policy.name

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, handle: int) -> bool:
        return handle in self._entries

    def get(self, handle: Optional[int]) -> Any:
        """The live item under ``handle``, or None."""
        if handle is None:
            return None
        entry = self._entries.get(handle)
        return entry[1] if entry is not None else None

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """``(key, item)`` pairs in the policy's cold-to-hot order."""
        entries = self._entries
        for handle in self.policy.iter_handles():
            key, item, _ = entries[handle]
            yield key, item

    # -- lifecycle ----------------------------------------------------------

    def insert(self, key: Hashable, item: Any, nbytes: int) -> int:
        """Admit ``item`` at MRU position; returns its handle.

        Room discipline stays with the consumer (call :meth:`make_room`
        first); the kernel tolerates transient overshoot so replacement
        flows can install the new entry before reclaiming the stale one.
        """
        handle = self._next_handle
        self._next_handle = handle + 1
        self._entries[handle] = (key, item, nbytes)
        self._used += nbytes
        self._policy_insert(handle, key)
        return handle

    def lookup_in(self, index: Mapping[Hashable, Any]
                  ) -> Callable[[Hashable], Any]:
        """The accounted lookup over the consumer's key ``index``.

        Returns ``lookup(key)``: a hit counts and promotes the entry, a
        miss counts and probes the ghost list.  This is the only place
        cache traffic is counted; a consumer's ``peek`` reads its index
        directly and touches nothing.  A closure because lookups
        dominate the simulation profile: the index, the policy methods
        and the counters are bound once.
        """
        get = index.get
        promote = self.policy.touch
        ghost_probe = self.policy.ghost_hit
        metrics = self.metrics
        hit, miss, ghost_hit = metrics.hit, metrics.miss, metrics.ghost_hit

        def lookup(key: Hashable) -> Any:
            item = get(key)
            if item is None:
                miss._total += 1
                if ghost_probe(key):
                    ghost_hit._total += 1
                return None
            hit._total += 1
            promote(item.cache_handle)
            return item

        return lookup

    # ``touch``, ``resize`` and ``make_room(key=)`` are named by the
    # frozen benchmark (benchmarks/ncbench); no ``src/`` caller needs
    # ``touch`` or ``key=``.
    def touch(self, handle: int) -> None:
        """Record a hit on a live entry (promotes it, counts the hit)."""
        self.policy.touch(handle)
        self.metrics.hit._total += 1

    def rekey(self, handle: int, new_key: Hashable) -> None:
        """Reassign a live entry's key (FHO→LBN remap) in place.

        The handle and the entry's recency position are untouched —
        exactly the pre-kernel remap semantics.
        """
        entries = self._entries
        _, item, nbytes = entries[handle]
        entries[handle] = (new_key, item, nbytes)

    def remove(self, handle: int) -> Any:
        """Take a live entry out without eviction semantics (no ghost,
        no evict counters); returns the item."""
        _, item, nbytes = self._entries.pop(handle)
        self._used -= nbytes
        self.policy.remove(handle)
        return item

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0
        self.policy.clear()

    # -- eviction -----------------------------------------------------------

    def set_ghost_admit(self,
                        admit: Optional[Callable[[Any], bool]]) -> None:
        """Install a predicate deciding which victims ghost-record.

        Victims failing ``admit`` leave the policy silently (no ghost
        entry, no later ``ghost_hit``); admitted victims behave exactly
        as before.  ``None`` restores the record-everything default.
        Only an adaptive arbiter should install this: ARC's ghost lists
        double as its internal adaptation signal, so filtering them
        changes replacement order for that policy.
        """
        self._ghost_admit = admit

    def _pick_victim(self) -> Optional[int]:
        entries = self._entries
        if self.clean_first:
            for handle in self.policy.iter_victims():
                item = entries[handle][1]
                if not item.dirty and not item.pinned:
                    return handle
        for handle in self.policy.iter_victims():
            if not entries[handle][1].pinned:
                return handle
        return None

    def _stall(self) -> NoReturn:
        if self._stall_event is not None and self.trace is not None \
                and self.trace.enabled:
            self.trace.emit(self._stall_event, cat=self._trace_cat,
                            used_bytes=self._used,
                            capacity_bytes=self.capacity_bytes,
                            entries=len(self._entries))
        raise CacheStallError(
            f"cache {self.name!r} cannot make room: "
            f"no evictable (unpinned) entries")

    def make_room(self, nbytes: int, key: Hashable = None,
                  on_evict: Optional[Callable[[Any], None]] = None
                  ) -> List[Any]:
        """Evict until ``nbytes`` fit; return the dirty victims.

        ``on_evict`` runs per victim *before* the next victim is chosen,
        so consumer-side bookkeeping (indexes, traces, reclaim
        listeners) observes the same intermediate states as the
        pre-kernel eviction loops.  ``key`` names the entry about to be
        inserted; one budget covers every key, so it is not used.
        """
        dirty_victims: List[Any] = []
        entries = self._entries
        policy_evicted = self._policy_evicted
        ghost_admit = self._ghost_admit
        metrics = self.metrics
        while self.capacity_bytes - self._used < nbytes:
            handle = self._pick_victim()
            if handle is None:
                self._stall()
            key_, item, vbytes = entries.pop(handle)
            self._used -= vbytes
            if ghost_admit is None or ghost_admit(item):
                policy_evicted(handle, key_)
            else:
                self.policy.remove(handle)
            if item.dirty:
                metrics.evict_dirty._total += 1
                dirty_victims.append(item)
            else:
                metrics.evict_clean._total += 1
            if on_evict is not None:
                on_evict(item)
        return dirty_victims

    # -- the budget operation (the §3.4 squeeze protocol) -------------------

    def resize(self, new_capacity_bytes: int,
               on_evict: Optional[Callable[[Any], None]] = None
               ) -> List[Any]:
        """Change the budget, evicting down to it if shrunk; returns the
        dirty victims exactly like :meth:`make_room`."""
        self.capacity_bytes = new_capacity_bytes
        return self.make_room(0, on_evict=on_evict)


class BudgetWindow:
    """Per-tick deltas over a kernel's monotonic metric counters.

    The feedback controller wants *windowed* rates — "ghost hits since
    the last tick" — while :class:`KernelMetrics` counters only grow.
    A window snapshots the grand totals and :meth:`advance` returns the
    deltas since the previous call, re-arming the snapshot.  Deltas are
    clamped at zero so a counter swap (e.g. a rebuilt registry after a
    cold restart) degrades to one empty window instead of going
    negative.
    """

    __slots__ = ("_metrics", "_ghost", "_hit", "_miss")

    def __init__(self, metrics: KernelMetrics) -> None:
        self._metrics = metrics
        self._ghost = metrics.ghost_hit._total
        self._hit = metrics.hit._total
        self._miss = metrics.miss._total

    def advance(self) -> Tuple[float, float, float]:
        """``(ghost_hits, hits, misses)`` since the previous call."""
        metrics = self._metrics
        ghost = metrics.ghost_hit._total
        hit = metrics.hit._total
        miss = metrics.miss._total
        deltas = (max(0.0, ghost - self._ghost),
                  max(0.0, hit - self._hit),
                  max(0.0, miss - self._miss))
        self._ghost, self._hit, self._miss = ghost, hit, miss
        return deltas
