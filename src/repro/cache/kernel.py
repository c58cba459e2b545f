"""The eviction kernel: one byte budget, any policy.

:class:`CacheKernel` owns what both of the repo's caches used to
hand-roll separately: a byte budget, victim selection that skips pinned
entries (with optional clean-first preference, §3.4: "first clean
buffers are reclaimed and then dirty buffers are flushed and
reclaimed"), and the ``cache.<name>.*`` metric family.  It keeps no
entry table of its own: each resident item is its own handle, and the
policy's recency lists, mapping item to ``(key, nbytes)``, are the only
per-entry record (DESIGN.md §9).

The kernel stores opaque items; it only requires them to expose
``dirty`` and ``pinned`` and to hash by identity (chunks and page-cache
entries both do).  The key indexes (LBN/FHO maps; the accounted lookup
over one is :meth:`CacheKernel.lookup_in`), traces, sanitizer hooks and
reclaim listeners remain with the consumer — the ``on_evict`` callback
runs per victim *before* the next victim is chosen, so listeners
observe exactly the intermediate states the pre-kernel stores produced.

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


class CacheKernel:
    """Byte budget over a pluggable policy's entries; see module doc."""

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
        """Evict until ``nbytes`` fit; return the dirty victims.

        ``on_evict`` runs per victim *before* the next victim is chosen,
        so consumer-side bookkeeping (indexes, traces, reclaim
        listeners) observes the same intermediate states as the
        pre-kernel eviction loops.  ``key`` is unused (one budget covers
        every key) and kept only for the benchmark, see :meth:`touch`.
        """
        dirty_victims: List[Any] = []
        policy_evicted = self._policy_evicted
        ghost_admit = self._ghost_admit
        metrics = self.metrics
        while self.capacity_bytes - self._used < nbytes:
            item = self._pick_victim()
            if item is None:
                self._stall()
            if ghost_admit is None or ghost_admit(item):
                self._used -= policy_evicted(item)[1]
            else:
                self._used -= self.policy.remove(item)[1]
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
