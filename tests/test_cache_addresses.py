"""Addresses never steer replacement.

The eviction kernel keys its recency list on the cached items
themselves, which hash by identity, i.e. by address.  Dicts iterate in
insertion order, so no victim, no ``items()`` order and no counter may
depend on where the allocator put an item, under LRU or any of the
integrity search's victim orders.  This test runs one seeded
store-level op program (insert / lookup / overwrite / remap / pin /
``make_room`` / resize) twice, the second time after allocating and
freeing decoys in a shuffled order so the items land at different
addresses (and in a different address order), and requires identical
results.
"""

from __future__ import annotations

import pytest

from repro.core import Chunk, FhoKey, NCacheStore
from repro.net.buffer import ExtentPayload
from repro.sim.rng import substream

from integrity_search import ORDERS, victim_order

BLOCK = 4096
N_KEYS = 12
OPS = 600


def _chunk(key, n: int, dirty: bool = False) -> Chunk:
    return Chunk.from_payload(key, ExtentPayload(n, 0, BLOCK), 1448,
                              dirty=dirty)


FOOTPRINT = _chunk(0, 0).footprint(160, 64)


def _kernel_counters(store: NCacheStore) -> dict:
    """The ``cache.ncache.*`` family as ``{hit: ..., miss: ..., ...}``."""
    return {name.rpartition(".")[2]: value
            for name, value in store.counters.snapshot().items()
            if name.startswith("cache.ncache.")}


def _shuffle_free_lists(seed: int) -> None:
    """Allocate chunk-shaped decoys and free them in a seeded random
    order: the allocator then hands the freed blocks out in that order."""
    decoys = [_chunk(i, i) for i in range(3000)]
    substream(seed, "decoy-order").shuffle(decoys)
    while decoys:
        decoys.pop()


def _program(order: str, decoys: bool):
    """One seeded op program under the victim order ``order``; returns
    what it observed and the address rank of every chunk it made
    (creation order -> rank by ``id``)."""
    if decoys:
        _shuffle_free_lists(5)
    with victim_order(order):
        return _ops(substream(1, f"address-independence-{order}"))


def _ops(rng):
    store = NCacheStore(8 * FOOTPRINT)
    victims, dirty, orders, made = [], [], [], []
    store.reclaim_listeners.append(lambda c: victims.append(c.key))
    pinned: list = []

    def written_back(victims):
        for chunk in victims:
            dirty.append(chunk.key)
            chunk.dirty = False
        return victims

    def admit(chunk):
        made.append(chunk)
        while written_back(store.make_room(FOOTPRINT)):
            pass
        store.insert(chunk)

    for step in range(OPS):
        op = rng.choice(["read", "read", "write", "lookup", "lookup",
                         "remap", "pin", "resize"])
        n = rng.randrange(N_KEYS)
        if op == "read":
            admit(_chunk(n, step))
        elif op == "write":
            admit(_chunk(FhoKey(n, 1, 0), step, dirty=True))
        elif op == "lookup":
            store.resolve(FhoKey(n, 1, 0), n)
        elif op == "remap":
            store.remap(FhoKey(n, 1, 0), rng.randrange(N_KEYS))
        elif op == "pin":
            if len(pinned) == 2:
                pinned.pop(0).unpin()
            chunk = store.peek(FhoKey(n, 1, 0), n)
            if chunk is not None:
                chunk.pin()
                pinned.append(chunk)
        else:
            written_back(store.resize(rng.randrange(4, 11) * FOOTPRINT))
        orders.append([c.key for c in store.chunks()])
    rank = sorted(range(len(made)), key=lambda i: id(made[i]))
    return (victims, dirty, orders,
            _kernel_counters(store)), rank


@pytest.mark.parametrize("order", ["lru"] + sorted(ORDERS))
def test_store_program_is_address_independent(order):
    plain, plain_rank = _program(order, decoys=False)
    shuffled, shuffled_rank = _program(order, decoys=True)
    assert plain_rank != shuffled_rank  # the decoys moved the items
    victims, dirty, orders, counters = plain
    assert counters["evict_clean"] and counters["evict_dirty"]
    assert counters["hit"] and counters["miss"]
    assert shuffled == plain
