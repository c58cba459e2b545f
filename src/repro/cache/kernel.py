"""The eviction kernel: one byte budget over an LRU list.

:class:`CacheKernel` owns what both of the repo's caches used to
hand-roll separately: a byte budget, victim selection that skips pinned
entries (with optional clean-first preference, §3.4: "first clean
buffers are reclaimed and then dirty buffers are flushed and
reclaimed"), and the ``cache.<name>.*`` metric family.  It keeps no
entry table of its own: each resident item is its own handle, and the
policy's recency list, mapping item to ``(key, nbytes)``, is the only
per-entry record (DESIGN.md §9).

The kernel stores opaque items; it only requires them to expose
``dirty`` and ``pinned`` and to hash by identity (chunks and page-cache
entries both do).  The key indexes (LBN/FHO maps; the accounted lookup
over one is :meth:`CacheKernel.lookup_in`), traces, sanitizer hooks and
reclaim listeners remain with the consumer — the ``on_evict`` callback
runs per victim *before* the next victim is chosen, so listeners
observe exactly the intermediate states the pre-kernel stores produced.

Budgets are fixed at configuration, as in the paper: NCache's pinned
buffers squeeze the FS cache once (§3.4/§4.1), and each cache keeps the
byte budget :class:`~repro.servers.config.TestbedConfig` computes.
:meth:`resize` exists for the store's cold restart; outside
``repro.cache`` only ``NCacheStore.cold_restart`` calls it
(``tests/test_tree_invariants.py``'s ``budget-lease`` rule).
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
    (or otherwise inadmissible); a request holds only what its reply
    needs, so the integrity search counts one as a kill."""


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


class CacheKernel:
    """Byte budget over the policy's entries; see module doc."""

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
        self._used = 0
        # Hot path: insert/evict run once per block entering or leaving
        # the cache; bind the policy methods once to skip the chains.
        self._policy_insert = self.policy.insert
        self._policy_evicted = self.policy.evicted

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
        return len(self.policy)

    def __contains__(self, item: Any) -> bool:
        return item in self.policy

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """``(key, item)`` pairs in the policy's cold-to-hot order."""
        for item, (key, _) in self.policy.entries():
            yield key, item

    # -- lifecycle ----------------------------------------------------------

    def insert(self, key: Hashable, item: Any, nbytes: int) -> Any:
        """Admit ``item`` at MRU position; returns its handle, which is
        ``item`` itself.

        Room discipline stays with the consumer (call :meth:`make_room`
        first); the kernel tolerates transient overshoot so replacement
        flows can install the new entry before reclaiming the stale one.
        """
        self._used += nbytes
        self._policy_insert(item, key, nbytes)
        return item

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
            promote(item)
            return item

        return lookup

    # ``touch``, ``resize`` and ``make_room(key=)`` are named by the
    # frozen benchmark (benchmarks/ncbench); no ``src/`` caller needs
    # ``touch`` or ``key=``.
    def touch(self, item: Any) -> None:
        """Record a hit on a live entry (promotes it, counts the hit)."""
        self.policy.touch(item)
        self.metrics.hit._total += 1

    def rekey(self, item: Any, new_key: Hashable) -> None:
        """Reassign a live entry's key (FHO→LBN remap) in place; its
        recency position is untouched — the pre-kernel remap semantics.
        """
        self.policy.rekey(item, new_key)

    def remove(self, item: Any) -> Any:
        """Take a live entry out without eviction semantics (no ghost,
        no evict counters); returns the item."""
        self._used -= self.policy.remove(item)[1]
        return item

    def clear(self) -> None:
        self._used = 0
        self.policy.clear()

    # -- eviction -----------------------------------------------------------

    def _pick_victim(self) -> Any:
        if self.clean_first:
            for item in self.policy.iter_victims():
                if not item.dirty and not item.pinned:
                    return item
        for item in self.policy.iter_victims():
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
        policy_evicted = self._policy_evicted
        metrics = self.metrics
        while self.capacity_bytes - self._used < nbytes:
            item = self._pick_victim()
            if item is None:
                self._stall()
            if item.dirty:
                metrics.evict_dirty._total += 1
                return [item]
            self._used -= policy_evicted(item)[1]
            metrics.evict_clean._total += 1
            if on_evict is not None:
                on_evict(item)
        return []

    # -- the budget -------------------------------------------------------

    def resize(self, new_capacity_bytes: int,
               on_evict: Optional[Callable[[Any], None]] = None
               ) -> List[Any]:
        """Change the budget, evicting down to it if shrunk; returns a
        dirty victim exactly like :meth:`make_room`."""
        self.capacity_bytes = new_capacity_bytes
        return self.make_room(0, on_evict=on_evict)
