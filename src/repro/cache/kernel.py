"""The eviction kernel: one byte budget over one LRU list.

:class:`CacheKernel` owns what both of the repo's caches used to
hand-roll separately: a byte budget, the paper's replacement — "classic
LRU over fixed-size chunks" (§3.4) — victim selection that skips pinned
entries (with optional clean-first preference, §3.4: "first clean
buffers are reclaimed and then dirty buffers are flushed and
reclaimed"), and the ``cache.<name>.*`` metric family.

Its one per-entry table is the recency list, an ``OrderedDict`` mapping
each resident *item* to its size in bytes, coldest first (DESIGN.md
§9).  The item is its own handle, like a pintos ``buffer_cache_elem``
that carries its own ``list_elem``: a hit is the C ``move_to_end``, an
eviction the C ``pop``.  Items hash by identity, but iteration order is
insertion order, so no order depends on addresses or on
``PYTHONHASHSEED``; the dict holds each item strongly, so a freed
object's address can never alias a resident entry.

The kernel stores opaque items; it only requires them to expose
``dirty`` and ``pinned`` and to hash by identity (chunks and page-cache
entries both do).  The key indexes (LBN/FHO maps; the accounted lookup
over one is :meth:`CacheKernel.lookup_in`), traces, sanitizer hooks and
reclaim listeners remain with the consumer — the ``on_evict`` callback
runs per victim *before* the next victim is chosen, so listeners
observe exactly the intermediate states the pre-kernel stores produced.

:meth:`CacheKernel.iter_victims` is the one hook a test may override:
the integrity search's tests-side victim orders (most recently used
first, seeded random) patch it for the length of a run.

Budgets are fixed at configuration, as in the paper: NCache's pinned
buffers squeeze the FS cache once (§3.4/§4.1), and each cache keeps the
byte budget :class:`~repro.servers.config.TestbedConfig` computes.
A budget moves only in ``NCacheStore.cold_restart``
(``tests/test_tree_invariants.py``'s ``budget-lease`` rule).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Any, Callable, Hashable, Iterator, List, Mapping,
                    NoReturn, Optional)

from ..obs.metrics import Counter, MetricsRegistry
from ..obs.trace import TraceBus
from ..sim.stats import CounterSet


class CacheStallError(RuntimeError):
    """Raised when eviction must make progress but every entry is pinned
    (or otherwise inadmissible); a request holds only what its reply
    needs, so the integrity search counts one as a kill."""


class KernelMetrics:
    """The ``cache.<name>.*`` metric family, resolved once at startup."""

    __slots__ = ("hit", "miss", "evict_clean", "evict_dirty")

    def __init__(self, hit: Counter, miss: Counter, evict_clean: Counter,
                 evict_dirty: Counter) -> None:
        self.hit = hit
        self.miss = miss
        self.evict_clean = evict_clean
        self.evict_dirty = evict_dirty

    @classmethod
    def declare(cls, registry: MetricsRegistry, name: str) -> "KernelMetrics":
        return cls(
            hit=registry.counter(f"cache.{name}.hit"),
            miss=registry.counter(f"cache.{name}.miss"),
            evict_clean=registry.counter(f"cache.{name}.evict_clean"),
            evict_dirty=registry.counter(f"cache.{name}.evict_dirty"),
        )


class CacheKernel:
    """Byte budget over one LRU list of items; see module doc."""

    def __init__(self, name: str, capacity_bytes: int,
                 policy: str = "lru", *,
                 clean_first: bool = False,
                 counters: Optional[CounterSet] = None,
                 trace: Optional[TraceBus] = None,
                 stall_event: Optional[str] = None,
                 trace_cat: str = "cache") -> None:
        if policy != "lru":
            raise ValueError(f"unknown cache policy {policy!r}; the kernel "
                             f"is the paper's LRU (§3.4)")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.clean_first = clean_first
        self.counters = counters if counters is not None else CounterSet()
        self.trace = trace
        self.metrics = KernelMetrics.declare(self.counters.registry, name)
        self._stall_event = stall_event
        self._trace_cat = trace_cat
        self._used = 0
        #: The recency list, coldest first: item -> nbytes.  ``clear``
        #: empties it in place, so bound methods of it stay valid.
        self._order: "OrderedDict[Any, int]" = OrderedDict()

    # -- inspection ---------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, item: Any) -> bool:
        return item in self._order

    def items(self) -> Iterator[Any]:
        """Resident items, coldest first, with no side effects."""
        return iter(self._order)

    # -- lifecycle ----------------------------------------------------------

    def insert(self, key: Hashable, item: Any, nbytes: int) -> Any:
        """Admit ``item`` at MRU position; returns its handle, which is
        ``item`` itself.  ``key`` is unused (the consumer's index holds
        keys) and kept for the benchmark, see :meth:`touch`.

        Room discipline stays with the consumer (call :meth:`make_room`
        first); the kernel tolerates transient overshoot so replacement
        flows can install the new entry before reclaiming the stale one.
        """
        self._used += nbytes
        self._order[item] = nbytes
        return item

    def lookup_in(self, index: Mapping[Hashable, Any]
                  ) -> Callable[[Hashable], Any]:
        """The accounted lookup over the consumer's key ``index``.

        Returns ``lookup(key)``: a hit counts and promotes the entry, a
        miss counts.  This is the only place cache traffic is counted; a
        consumer's ``peek`` reads its index directly and touches
        nothing.  A closure because lookups dominate the simulation
        profile: the index, the list's ``move_to_end`` and the counters
        are bound once.
        """
        get = index.get
        promote = self._order.move_to_end
        hit, miss = self.metrics.hit, self.metrics.miss

        def lookup(key: Hashable) -> Any:
            item = get(key)
            if item is None:
                miss._total += 1
                return None
            hit._total += 1
            promote(item)
            return item

        return lookup

    def remove(self, item: Any) -> Any:
        """Take a live entry out without eviction semantics (no evict
        counter); returns the item."""
        self._used -= self._order.pop(item)
        return item

    def clear(self) -> None:
        self._used = 0
        self._order.clear()

    # -- names kept for the frozen benchmark (benchmarks/ncbench) ----------
    # It constructs ``CacheKernel(name, capacity, "lru")``, passes
    # ``insert`` a key and ``make_room`` a ``key=``, calls ``touch`` and
    # wraps ``touch``, ``rekey`` and ``resize`` by name.  No ``src/``
    # caller needs any of them or either key.

    def touch(self, item: Any) -> None:
        """Record a hit on a live entry (promotes it, counts the hit)."""
        self._order.move_to_end(item)
        self.metrics.hit._total += 1

    def rekey(self, item: Any, new_key: Hashable) -> None:
        """A no-op: the kernel keeps no key, and a remap keeps the
        entry's recency position."""

    def resize(self, new_capacity_bytes: int,
               on_evict: Optional[Callable[[Any], None]] = None
               ) -> List[Any]:
        """Change the budget, evicting down to it if shrunk; returns a
        dirty victim exactly like :meth:`make_room`."""
        self.capacity_bytes = new_capacity_bytes
        return self.make_room(0, on_evict=on_evict)

    # -- eviction -----------------------------------------------------------

    def iter_victims(self) -> Iterator[Any]:
        """Items in eviction-preference order (best victim first): LRU's
        coldest first.  Consumed lazily, up to the first admissible
        victim; the one hook a test may override."""
        return iter(self._order)

    def _pick_victim(self) -> Any:
        if self.clean_first:
            for item in self.iter_victims():
                if not item.dirty and not item.pinned:
                    return item
        for item in self.iter_victims():
            if not item.pinned:
                return item
        return None

    def _stall(self) -> NoReturn:
        if self._stall_event is not None and self.trace is not None \
                and self.trace.enabled:
            self.trace.emit(self._stall_event, cat=self._trace_cat,
                            used_bytes=self._used,
                            capacity_bytes=self.capacity_bytes,
                            entries=len(self))
        raise CacheStallError(
            f"cache {self.name!r} cannot make room: "
            f"no evictable (unpinned) entries")

    def make_room(self, nbytes: int, key: Hashable = None,
                  on_evict: Optional[Callable[[Any], None]] = None
                  ) -> List[Any]:
        """Evict until ``nbytes`` fit; ``[]`` once they do.

        Write back first, then evict clean (§3.4): a dirty victim stays
        resident and is returned alone; the caller writes it back and
        calls again.  ``on_evict`` runs per victim *before* the next is
        chosen, so consumer-side bookkeeping (indexes, traces, reclaim
        listeners) observes the same intermediate states as the
        pre-kernel eviction loops.  ``key`` is unused (one budget covers
        every key) and kept only for the benchmark, see :meth:`touch`.
        """
        pop = self._order.pop
        metrics = self.metrics
        while self.capacity_bytes - self._used < nbytes:
            item = self._pick_victim()
            if item is None:
                self._stall()
            if item.dirty:
                metrics.evict_dirty._total += 1
                return [item]
            self._used -= pop(item)
            metrics.evict_clean._total += 1
            if on_evict is not None:
                on_evict(item)
        return []
