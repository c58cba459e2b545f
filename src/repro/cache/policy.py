"""The replacement policy of the cache kernel: classic LRU (§3.4).

A :class:`Policy` owns the kernel's only per-entry table: its recency
list maps each resident *item* to its record ``(key, nbytes)``.  The
item is its own handle, like a pintos ``buffer_cache_elem`` that carries
its own ``list_elem``.  The kernel feeds lifecycle events in
(``insert`` / ``touch`` / ``remove`` / ``evicted``), reads records back
(``entries`` / ``rekey``) and asks for candidates (``iter_victims``).
The kernel — not the policy — skips pinned entries and applies
clean-first preference.

``iter_victims`` yields items in *eviction-preference order*; the kernel
consumes it lazily and stops at the first admissible victim.  It is the
one overridable hook: the integrity search's tests-side victim orders
(most recently used first, seeded random) subclass :class:`LruPolicy`
and override only it.

The policy also keeps a bounded **ghost list** of recently evicted
*keys*: :meth:`Policy.ghost_hit` answers "would a somewhat larger cache
have hit?" without holding the data.  The kernel turns that into the
``cache.<name>.ghost_hit`` metric.

Both structures are plain ``OrderedDict`` over items or keys.  Items
hash by identity, but iteration order is insertion order, so no order
depends on addresses or on ``PYTHONHASHSEED`` (keys hash as tuples of
ints).  A dict holds its item strongly, so a freed object's address can
never alias a resident entry (the ``id()``-keyed store it replaced could).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, Tuple, Type

#: Ghost lists never shrink below this many keys, even for tiny caches.
GHOST_FLOOR = 8

#: What the kernel knows of a resident item: ``(key, nbytes)``.
Record = Tuple[Hashable, int]


class Policy:
    """The interface the kernel drives; see the module docstring."""

    #: registry key; subclasses override.
    name = "base"

    def insert(self, item: Any, key: Hashable, nbytes: int) -> None:
        """A new entry entered the cache at MRU position."""
        raise NotImplementedError

    def touch(self, item: Any) -> None:
        """The entry was hit."""
        raise NotImplementedError

    def remove(self, item: Any) -> Record:
        """The entry left the cache *without* being evicted (drop,
        replacement): no ghost is recorded.  Returns its record."""
        raise NotImplementedError

    def evicted(self, item: Any) -> Record:
        """The entry was evicted by the kernel: its key becomes a ghost
        so a quick return counts as a ghost hit.  Returns its record."""
        raise NotImplementedError

    def rekey(self, item: Any, key: Hashable) -> None:
        """Replace a resident entry's key, keeping its position."""
        raise NotImplementedError

    def clear(self) -> None:
        """Forget all live entries and ghosts."""
        raise NotImplementedError

    def iter_victims(self) -> Iterator[Any]:
        """Items in eviction-preference order (best victim first)."""
        raise NotImplementedError

    def entries(self) -> Iterator[Tuple[Any, Record]]:
        """``(item, record)`` for every resident entry, coldest first,
        with no side effects."""
        raise NotImplementedError

    def ghost_hit(self, key: Hashable) -> bool:
        """Non-consuming probe: was ``key`` evicted recently?"""
        raise NotImplementedError


class LruPolicy(Policy):
    """The paper's replacement (§3.4): touch moves to tail, evict head.

    Byte-for-byte the behavior of the pre-kernel hand-rolled LRUs: one
    OrderedDict, ``move_to_end`` on touch, head-first victims.
    """

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[Any, Record]" = OrderedDict()
        self._ghost: "OrderedDict[Hashable, None]" = OrderedDict()
        # Hot path: a touch is exactly move_to_end and a ghost probe a
        # membership test, so hand callers the bound C methods — an LRU
        # hit then costs what the pre-kernel hand-rolled OrderedDict
        # cost (clear() empties in place, so the bindings stay valid
        # for the policy's lifetime).
        self.touch = self._order.move_to_end  # type: ignore[method-assign]
        self.ghost_hit = self._ghost.__contains__  # type: ignore[method-assign]  # noqa: E501

    def insert(self, item: Any, key: Hashable, nbytes: int) -> None:
        self._order[item] = (key, nbytes)
        ghost = self._ghost
        if ghost:
            ghost.pop(key, None)

    def remove(self, item: Any) -> Record:
        return self._order.pop(item)

    def evicted(self, item: Any) -> Record:
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

    def rekey(self, item: Any, key: Hashable) -> None:
        self._order[item] = (key, self._order[item][1])

    def clear(self) -> None:
        self._order.clear()
        self._ghost.clear()

    def iter_victims(self) -> Iterator[Any]:
        return iter(self._order)

    def entries(self) -> Iterator[Tuple[Any, Record]]:
        return iter(self._order.items())

    def __contains__(self, item: Any) -> bool:
        return item in self._order

    def __len__(self) -> int:
        return len(self._order)


#: Registry keyed by policy name.
POLICIES: Dict[str, Type[Policy]] = {LruPolicy.name: LruPolicy}


def make_policy(name: str) -> Policy:
    """A fresh policy instance by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown cache policy {name!r}; "
            f"known: {', '.join(sorted(POLICIES))}") from None
    return cls()
