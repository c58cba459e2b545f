"""Replacement policies for the cache kernel.

A :class:`Policy` owns the kernel's only per-entry table: its recency
lists map each resident *item* to its record ``(key, nbytes)``.  The
item is its own handle, like a pintos ``buffer_cache_elem`` that carries
its own ``list_elem``.  The kernel feeds lifecycle events in
(``insert`` / ``touch`` / ``remove`` / ``evicted``), reads records back
(``entries`` / ``rekey``) and asks for candidates (``iter_victims``).
The kernel — not the policy — skips pinned entries and applies
clean-first preference, so every policy is automatically
pin/dirty-aware.

``iter_victims`` yields items in *eviction-preference order*.  The
kernel consumes the iterator lazily and stops at the first admissible
victim, so a policy may mutate its own structures while yielding (CLOCK
rotates its hand this way) as long as iteration terminates.

Every policy also keeps a bounded **ghost list** of recently evicted
*keys*: :meth:`Policy.ghost_hit` answers "would a somewhat larger cache
have hit?" without holding the data.  The kernel turns that into the
``cache.<name>.ghost_hit`` metric; ARC additionally uses its ghosts
(B1/B2) to adapt its partition, per the classic algorithm.

All structures are plain ``OrderedDict`` over items or keys.  Items
hash by identity, but iteration order is insertion order, so no order
depends on addresses or on ``PYTHONHASHSEED`` (keys hash as tuples of
ints).  A dict holds its item strongly, so a freed object's address can
never alias a resident entry (the ``id()``-keyed store it replaced could).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Any, Dict, Hashable, Iterator, Set, Tuple, Type

#: Ghost lists never shrink below this many keys, even for tiny caches.
GHOST_FLOOR = 8

#: What the kernel knows of a resident item: ``(key, nbytes)``.
Record = Tuple[Hashable, int]


class Policy:
    """Recency bookkeeping over resident items; see the module docstring.

    ``_lists`` names the policy's recency lists in cold-to-hot order;
    the generic lookups (``__contains__``, ``remove``, ``rekey``,
    ``entries``) walk them.
    """

    #: registry key; subclasses override.
    name = "base"

    def __init__(self) -> None:
        self._lists: Tuple["OrderedDict[Any, Record]", ...] = ()
        self._ghost: "OrderedDict[Hashable, None]" = OrderedDict()
        # Hot path: every consumer miss probes the ghost list, so bind
        # the C-level membership test over the (never-replaced) dict.
        # ARC rebinds — it probes two ghost lists (B1/B2) instead.
        self.ghost_hit = self._ghost.__contains__  # type: ignore[method-assign]  # noqa: E501

    # -- lifecycle (kernel -> policy) --------------------------------------

    def insert(self, item: Any, key: Hashable, nbytes: int) -> None:
        """A new entry entered the cache at MRU position."""
        raise NotImplementedError

    def touch(self, item: Any) -> None:
        """The entry was hit."""
        raise NotImplementedError

    def remove(self, item: Any) -> Record:
        """The entry left the cache *without* being evicted (drop,
        replacement): no ghost is recorded.  Returns its record."""
        for lst in self._lists:
            if item in lst:
                return lst.pop(item)
        raise KeyError(item)

    def evicted(self, item: Any) -> Record:
        """The entry was evicted by the kernel: remember its key as a
        ghost so a quick return counts as a ghost hit."""
        record = self.remove(item)
        self._remember_ghost(record[0])
        return record

    def rekey(self, item: Any, key: Hashable) -> None:
        """Replace a resident entry's key, keeping its position."""
        for lst in self._lists:
            record = lst.get(item)
            if record is not None:
                lst[item] = (key, record[1])
                return
        raise KeyError(item)

    def clear(self) -> None:
        """Forget all live entries and ghosts."""
        self._ghost.clear()
        for lst in self._lists:
            lst.clear()

    # -- queries (policy -> kernel) ----------------------------------------

    def iter_victims(self) -> Iterator[Any]:
        """Items in eviction-preference order (best victim first)."""
        raise NotImplementedError

    def entries(self) -> Iterator[Tuple[Any, Record]]:
        """``(item, record)`` for every resident entry, least recently
        used first, with no side effects.

        For :class:`LruPolicy` this is exactly the classic LRU order the
        paper's store exposed; other policies define their own canonical
        cold-to-hot order.
        """
        return chain.from_iterable(lst.items() for lst in self._lists)

    def __contains__(self, item: Any) -> bool:
        return any(item in lst for lst in self._lists)

    def __len__(self) -> int:
        return sum(len(lst) for lst in self._lists)

    # -- ghost list ---------------------------------------------------------

    def ghost_hit(self, key: Hashable) -> bool:
        """Non-consuming probe: was ``key`` evicted recently?

        The probe must not consume the ghost entry: the kernel calls it
        on every miss, and the subsequent :meth:`insert` of the same key
        (which pops the ghost via :meth:`_note_insert`) may or may not
        follow.
        """
        return key in self._ghost

    def _note_insert(self, key: Hashable) -> None:
        self._ghost.pop(key, None)

    def _remember_ghost(self, key: Hashable) -> None:
        ghost = self._ghost
        ghost.pop(key, None)
        ghost[key] = None
        cap = max(GHOST_FLOOR, len(self))
        while len(ghost) > cap:
            ghost.popitem(last=False)


class LruPolicy(Policy):
    """The paper's replacement (§3.4): touch moves to tail, evict head.

    Byte-for-byte the behavior of the pre-kernel hand-rolled LRUs: one
    OrderedDict, ``move_to_end`` on touch, head-first victims.
    """

    name = "lru"

    def __init__(self) -> None:
        super().__init__()
        self._order: "OrderedDict[Any, Record]" = OrderedDict()
        self._lists = (self._order,)
        # Hot path: a touch is exactly move_to_end, so hand callers the
        # bound C method — an LRU hit then costs what the pre-kernel
        # hand-rolled OrderedDict cost (clear() empties in place, so
        # the binding stays valid for the policy's lifetime).
        self.touch = self._order.move_to_end  # type: ignore[method-assign]

    def insert(self, item: Any, key: Hashable, nbytes: int) -> None:
        self._order[item] = (key, nbytes)
        ghost = self._ghost
        if ghost:
            ghost.pop(key, None)

    def touch(self, item: Any) -> None:  # pragma: no cover - see __init__
        self._order.move_to_end(item)

    def remove(self, item: Any) -> Record:
        return self._order.pop(item)

    def evicted(self, item: Any) -> Record:
        # One call from the kernel's eviction loop instead of three
        # (remove + _remember_ghost); semantics identical to the base.
        order = self._order
        record = order.pop(item)
        key = record[0]
        ghost = self._ghost
        ghost.pop(key, None)
        ghost[key] = None
        cap = len(order)
        if cap < GHOST_FLOOR:
            cap = GHOST_FLOOR
        while len(ghost) > cap:
            ghost.popitem(last=False)
        return record

    def iter_victims(self) -> Iterator[Any]:
        return iter(self._order)

    def entries(self) -> Iterator[Tuple[Any, Record]]:
        return iter(self._order.items())

    def __contains__(self, item: Any) -> bool:
        return item in self._order

    def __len__(self) -> int:
        return len(self._order)


class ClockPolicy(Policy):
    """Second-chance FIFO: a hit sets a reference bit; the hand clears
    it and rotates instead of evicting.

    The ring is an OrderedDict whose head is the hand; the reference
    bits are a set of items beside it (only ever probed, never iterated).
    ``iter_victims`` rotates referenced entries to the tail (clearing
    their bit) and yields unreferenced ones; a bounded sweep (two full
    revolutions) guarantees termination even when the kernel rejects
    every candidate as pinned.
    """

    name = "clock"

    def __init__(self) -> None:
        super().__init__()
        self._ring: "OrderedDict[Any, Record]" = OrderedDict()
        self._referenced: Set[Any] = set()
        self._lists = (self._ring,)

    def insert(self, item: Any, key: Hashable, nbytes: int) -> None:
        self._ring[item] = (key, nbytes)
        self._note_insert(key)

    def touch(self, item: Any) -> None:
        self._referenced.add(item)

    def remove(self, item: Any) -> Record:
        self._referenced.discard(item)
        return self._ring.pop(item)

    def clear(self) -> None:
        super().clear()
        self._referenced.clear()

    def iter_victims(self) -> Iterator[Any]:
        ring = self._ring
        referenced = self._referenced
        budget = 2 * len(ring) + 1
        while ring and budget > 0:
            budget -= 1
            item = next(iter(ring))
            if item in referenced:
                referenced.remove(item)
                ring.move_to_end(item)
                continue
            yield item
            if item in ring:
                # Kernel skipped this candidate (pinned/dirty): rotate it
                # past the hand so the sweep makes progress.
                ring.move_to_end(item)


class SlruPolicy(Policy):
    """Segmented LRU (2Q-style): probation + protected segments.

    New entries land in *probation*; a hit promotes to *protected*
    (capped at :data:`PROTECTED_FRACTION` of the live count, demoting
    protected-LRU back to probation-MRU on overflow).  Victims come from
    probation head first, so one-touch scans wash through probation
    without displacing the protected working set.
    """

    name = "slru"

    #: protected segment's share of the live entry count.
    PROTECTED_FRACTION = 0.8

    def __init__(self) -> None:
        super().__init__()
        self._probation: "OrderedDict[Any, Record]" = OrderedDict()
        self._protected: "OrderedDict[Any, Record]" = OrderedDict()
        self._lists = (self._probation, self._protected)

    def insert(self, item: Any, key: Hashable, nbytes: int) -> None:
        self._probation[item] = (key, nbytes)
        self._note_insert(key)

    def touch(self, item: Any) -> None:
        if item in self._protected:
            self._protected.move_to_end(item)
            return
        self._protected[item] = self._probation.pop(item)
        self._rebalance()

    def _rebalance(self) -> None:
        cap = max(1, int(self.PROTECTED_FRACTION * len(self)))
        while len(self._protected) > cap:
            demoted, record = self._protected.popitem(last=False)
            self._probation[demoted] = record

    def iter_victims(self) -> Iterator[Any]:
        return chain(iter(self._probation), iter(self._protected))


class ArcPolicy(Policy):
    """ARC-style adaptive replacement: recency (T1) vs frequency (T2)
    lists plus ghost lists (B1/B2) steering the balance.

    A ghost hit in B1 (recently evicted one-touch entries) grows the
    recency target ``_p``; a hit in B2 shrinks it.  Victims come from T1
    while it exceeds the target, else from T2; the non-preferred list is
    chained after as a fallback so pinned entries can never stall
    eviction while any unpinned entry exists.  Counts (not bytes) drive
    the adaptation — entries here are fixed-size chunks/pages, so the
    two are proportional.
    """

    name = "arc"

    def __init__(self) -> None:
        super().__init__()
        self._t1: "OrderedDict[Any, Record]" = OrderedDict()
        self._t2: "OrderedDict[Any, Record]" = OrderedDict()
        self._b1: "OrderedDict[Hashable, None]" = OrderedDict()
        self._b2: "OrderedDict[Hashable, None]" = OrderedDict()
        self._lists = (self._t1, self._t2)
        self._p = 0.0
        # Restore ARC's dual-list probe over the base class's binding.
        self.ghost_hit = self._arc_ghost_hit  # type: ignore[method-assign]

    def insert(self, item: Any, key: Hashable, nbytes: int) -> None:
        if key in self._b1:
            self._p = min(float(len(self) + 1),
                          self._p + max(1.0, len(self._b2)
                                        / max(1, len(self._b1))))
            del self._b1[key]
            self._t2[item] = (key, nbytes)
        elif key in self._b2:
            self._p = max(0.0,
                          self._p - max(1.0, len(self._b1)
                                        / max(1, len(self._b2))))
            del self._b2[key]
            self._t2[item] = (key, nbytes)
        else:
            self._t1[item] = (key, nbytes)

    def touch(self, item: Any) -> None:
        if item in self._t2:
            self._t2.move_to_end(item)
            return
        self._t2[item] = self._t1.pop(item)

    def evicted(self, item: Any) -> Record:
        if item in self._t1:
            record = self._t1.pop(item)
            ghost = self._b1
        else:
            record = self._t2.pop(item)
            ghost = self._b2
        key = record[0]
        ghost.pop(key, None)
        ghost[key] = None
        cap = max(GHOST_FLOOR, len(self))
        for g in (self._b1, self._b2):
            while len(g) > cap:
                g.popitem(last=False)
        return record

    def clear(self) -> None:
        super().clear()
        self._b1.clear()
        self._b2.clear()
        self._p = 0.0

    def ghost_hit(self, key: Hashable) -> bool:
        return self._arc_ghost_hit(key)

    def _arc_ghost_hit(self, key: Hashable) -> bool:
        return key in self._b1 or key in self._b2

    def iter_victims(self) -> Iterator[Any]:
        if len(self._t1) > max(1.0, self._p):
            return chain(iter(self._t1), iter(self._t2))
        return chain(iter(self._t2), iter(self._t1))


#: Registry keyed by policy name — the experiment grid sweeps this.
POLICIES: Dict[str, Type[Policy]] = {
    LruPolicy.name: LruPolicy,
    ClockPolicy.name: ClockPolicy,
    SlruPolicy.name: SlruPolicy,
    ArcPolicy.name: ArcPolicy,
}


def make_policy(name: str) -> Policy:
    """A fresh policy instance by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; "
            f"known: {', '.join(sorted(POLICIES))}") from None
    return cls()
