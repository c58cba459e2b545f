"""Replacement policies for the cache kernel.

A :class:`Policy` owns only *recency bookkeeping* over opaque integer
handles — it never sees items, sizes, pins or dirty bits.  The kernel
allocates handles (monotonic, never reused — see DESIGN.md §9 on why
``id()``-keyed recency structures are unsound), feeds lifecycle events in
(``insert`` / ``touch`` / ``remove`` / ``evicted``), and asks for
candidates back (``iter_victims``).  The kernel — not the policy — skips
pinned entries and applies clean-first preference, so every policy is
automatically pin/dirty-aware.

``iter_victims`` yields handles in *eviction-preference order*.  The
kernel consumes the iterator lazily and stops at the first admissible
victim, so a policy may mutate its own structures while yielding (CLOCK
rotates its hand this way) as long as iteration terminates.

Every policy also keeps a bounded **ghost list** of recently evicted
*keys*: :meth:`Policy.ghost_hit` answers "would a somewhat larger cache
have hit?" without holding the data.  The kernel turns that into the
``cache.<name>.ghost_hit`` metric; ARC additionally uses its ghosts
(B1/B2) to adapt its partition, per the classic algorithm.

All structures are plain ``OrderedDict`` over int handles or keys —
iteration order is insertion order, fully deterministic, never dependent
on ``PYTHONHASHSEED`` (handles are ints; keys hash as tuples of ints).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Dict, Hashable, Iterator, Type

#: Ghost lists never shrink below this many keys, even for tiny caches.
GHOST_FLOOR = 8


class Policy:
    """Recency bookkeeping over opaque handles; see the module docstring."""

    #: registry key; subclasses override.
    name = "base"

    def __init__(self) -> None:
        self._ghost: "OrderedDict[Hashable, None]" = OrderedDict()
        # Hot path: every consumer miss probes the ghost list, so bind
        # the C-level membership test over the (never-replaced) dict.
        # ARC rebinds — it probes two ghost lists (B1/B2) instead.
        self.ghost_hit = self._ghost.__contains__  # type: ignore[method-assign]  # noqa: E501

    # -- lifecycle (kernel -> policy) --------------------------------------

    def insert(self, handle: int, key: Hashable) -> None:
        """A new entry entered the cache at MRU position."""
        raise NotImplementedError

    def touch(self, handle: int) -> None:
        """The entry was hit."""
        raise NotImplementedError

    def remove(self, handle: int) -> None:
        """The entry left the cache *without* being evicted (drop,
        replacement): no ghost is recorded."""
        raise NotImplementedError

    def evicted(self, handle: int, key: Hashable) -> None:
        """The entry was evicted by the kernel: remember its key as a
        ghost so a quick return counts as a ghost hit."""
        self.remove(handle)
        self._remember_ghost(key)

    def clear(self) -> None:
        """Forget all live entries and ghosts."""
        self._ghost.clear()

    # -- queries (policy -> kernel) ----------------------------------------

    def iter_victims(self) -> Iterator[int]:
        """Handles in eviction-preference order (best victim first)."""
        raise NotImplementedError

    def iter_handles(self) -> Iterator[int]:
        """All live handles, least-recently-used first, no side effects.

        For :class:`LruPolicy` this is exactly the classic LRU order the
        paper's store exposed; other policies define their own canonical
        cold-to-hot order.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

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
        self._order: "OrderedDict[int, None]" = OrderedDict()
        # Hot path: a touch is exactly move_to_end, so hand callers the
        # bound C method — an LRU hit then costs what the pre-kernel
        # hand-rolled OrderedDict cost (clear() empties in place, so
        # the binding stays valid for the policy's lifetime).
        self.touch = self._order.move_to_end  # type: ignore[method-assign]

    def insert(self, handle: int, key: Hashable) -> None:
        self._order[handle] = None
        ghost = self._ghost
        if ghost:
            ghost.pop(key, None)

    def touch(self, handle: int) -> None:  # pragma: no cover - see __init__
        self._order.move_to_end(handle)

    def remove(self, handle: int) -> None:
        del self._order[handle]

    def evicted(self, handle: int, key: Hashable) -> None:
        # One call from the kernel's eviction loop instead of three
        # (remove + _remember_ghost); semantics identical to the base.
        del self._order[handle]
        ghost = self._ghost
        ghost.pop(key, None)
        ghost[key] = None
        cap = len(self._order)
        if cap < GHOST_FLOOR:
            cap = GHOST_FLOOR
        while len(ghost) > cap:
            ghost.popitem(last=False)

    def clear(self) -> None:
        super().clear()
        self._order.clear()

    def iter_victims(self) -> Iterator[int]:
        return iter(self._order)

    def iter_handles(self) -> Iterator[int]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)


class ClockPolicy(Policy):
    """Second-chance FIFO: a hit sets a reference bit; the hand clears
    it and rotates instead of evicting.

    The ring is an OrderedDict whose head is the hand.  ``iter_victims``
    rotates referenced entries to the tail (clearing their bit) and
    yields unreferenced ones; a bounded sweep (two full revolutions)
    guarantees termination even when the kernel rejects every candidate
    as pinned.
    """

    name = "clock"

    def __init__(self) -> None:
        super().__init__()
        self._ring: "OrderedDict[int, bool]" = OrderedDict()

    def insert(self, handle: int, key: Hashable) -> None:
        self._ring[handle] = False
        self._note_insert(key)

    def touch(self, handle: int) -> None:
        self._ring[handle] = True

    def remove(self, handle: int) -> None:
        del self._ring[handle]

    def clear(self) -> None:
        super().clear()
        self._ring.clear()

    def iter_victims(self) -> Iterator[int]:
        ring = self._ring
        budget = 2 * len(ring) + 1
        while ring and budget > 0:
            budget -= 1
            handle = next(iter(ring))
            if ring[handle]:
                ring[handle] = False
                ring.move_to_end(handle)
                continue
            yield handle
            if handle in ring:
                # Kernel skipped this candidate (pinned/dirty): rotate it
                # past the hand so the sweep makes progress.
                ring.move_to_end(handle)

    def iter_handles(self) -> Iterator[int]:
        return iter(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


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
        self._probation: "OrderedDict[int, None]" = OrderedDict()
        self._protected: "OrderedDict[int, None]" = OrderedDict()

    def insert(self, handle: int, key: Hashable) -> None:
        self._probation[handle] = None
        self._note_insert(key)

    def touch(self, handle: int) -> None:
        if handle in self._protected:
            self._protected.move_to_end(handle)
            return
        del self._probation[handle]
        self._protected[handle] = None
        self._rebalance()

    def _rebalance(self) -> None:
        cap = max(1, int(self.PROTECTED_FRACTION * len(self)))
        while len(self._protected) > cap:
            demoted, _ = self._protected.popitem(last=False)
            self._probation[demoted] = None

    def remove(self, handle: int) -> None:
        if handle in self._probation:
            del self._probation[handle]
        else:
            del self._protected[handle]

    def clear(self) -> None:
        super().clear()
        self._probation.clear()
        self._protected.clear()

    def iter_victims(self) -> Iterator[int]:
        return chain(iter(self._probation), iter(self._protected))

    def iter_handles(self) -> Iterator[int]:
        return chain(iter(self._probation), iter(self._protected))

    def __len__(self) -> int:
        return len(self._probation) + len(self._protected)


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
        self._t1: "OrderedDict[int, None]" = OrderedDict()
        self._t2: "OrderedDict[int, None]" = OrderedDict()
        self._b1: "OrderedDict[Hashable, None]" = OrderedDict()
        self._b2: "OrderedDict[Hashable, None]" = OrderedDict()
        self._p = 0.0
        # Restore ARC's dual-list probe over the base class's binding.
        self.ghost_hit = self._arc_ghost_hit  # type: ignore[method-assign]

    def insert(self, handle: int, key: Hashable) -> None:
        if key in self._b1:
            self._p = min(float(len(self) + 1),
                          self._p + max(1.0, len(self._b2)
                                        / max(1, len(self._b1))))
            del self._b1[key]
            self._t2[handle] = None
        elif key in self._b2:
            self._p = max(0.0,
                          self._p - max(1.0, len(self._b1)
                                        / max(1, len(self._b2))))
            del self._b2[key]
            self._t2[handle] = None
        else:
            self._t1[handle] = None

    def touch(self, handle: int) -> None:
        if handle in self._t2:
            self._t2.move_to_end(handle)
            return
        del self._t1[handle]
        self._t2[handle] = None

    def remove(self, handle: int) -> None:
        if handle in self._t1:
            del self._t1[handle]
        else:
            del self._t2[handle]

    def evicted(self, handle: int, key: Hashable) -> None:
        if handle in self._t1:
            del self._t1[handle]
            ghost = self._b1
        else:
            del self._t2[handle]
            ghost = self._b2
        ghost.pop(key, None)
        ghost[key] = None
        cap = max(GHOST_FLOOR, len(self))
        for g in (self._b1, self._b2):
            while len(g) > cap:
                g.popitem(last=False)

    def clear(self) -> None:
        super().clear()
        self._t1.clear()
        self._t2.clear()
        self._b1.clear()
        self._b2.clear()
        self._p = 0.0

    def ghost_hit(self, key: Hashable) -> bool:
        return self._arc_ghost_hit(key)

    def _arc_ghost_hit(self, key: Hashable) -> bool:
        return key in self._b1 or key in self._b2

    def iter_victims(self) -> Iterator[int]:
        if len(self._t1) > max(1.0, self._p):
            return chain(iter(self._t1), iter(self._t2))
        return chain(iter(self._t2), iter(self._t1))

    def iter_handles(self) -> Iterator[int]:
        return chain(iter(self._t1), iter(self._t2))

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)


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
