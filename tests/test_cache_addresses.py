"""Addresses never steer replacement.

The eviction kernel keys its recency lists on the cached items
themselves, which hash by identity, i.e. by address.  Dicts iterate in
insertion order, so no victim, no ``items()`` order and no counter may
depend on where the allocator put an item.  These tests run the same
seeded program twice, the second time after allocating and freeing
decoys in a shuffled order so the items land at different addresses
(and in a different address order), and require identical results:

* a store-level op program (insert / lookup / overwrite / remap / pin /
  ``make_room`` / resize) under every policy;
* one quick NFS cell under ARC, the policy with the most lists.
"""

from __future__ import annotations

import pytest

from repro.cache import POLICIES
from repro.core import Chunk, FhoKey, LbnKey, NCacheStore
from repro.net.buffer import ExtentPayload
from repro.sim.rng import substream

from test_ncache_pressure import sfs_cell

BLOCK = 4096
N_KEYS = 12
OPS = 600


def _chunk(key, n: int, dirty: bool = False) -> Chunk:
    return Chunk.from_payload(key, ExtentPayload(n, 0, BLOCK), 1448,
                              dirty=dirty)


FOOTPRINT = _chunk(LbnKey(0, 0), 0).footprint(160, 64)


def _kernel_counters(metrics) -> dict:
    """The ``cache.<name>.*`` family as ``{hit: ..., miss: ..., ...}``."""
    return {name: getattr(metrics, name).value
            for name in type(metrics).__slots__}


def _shuffle_free_lists(seed: int) -> None:
    """Allocate chunk-shaped decoys and free them in a seeded random
    order: the allocator then hands the freed blocks out in that order."""
    decoys = [_chunk(LbnKey(9, i), i) for i in range(3000)]
    substream(seed, "decoy-order").shuffle(decoys)
    while decoys:
        decoys.pop()


def _program(policy: str, decoys: bool):
    """One seeded op program; returns what it observed and the address
    rank of every chunk it made (creation order -> rank by ``id``)."""
    if decoys:
        _shuffle_free_lists(5)
    rng = substream(1, f"address-independence-{policy}")
    store = NCacheStore(8 * FOOTPRINT, policy=policy)
    victims, dirty, orders, made = [], [], [], []
    store.reclaim_listeners.append(lambda c: victims.append(c.key))
    pinned: list = []

    def admit(chunk):
        made.append(chunk)
        dirty.extend(c.key for c in store.make_room(FOOTPRINT))
        store.insert(chunk)

    for step in range(OPS):
        op = rng.choice(["read", "read", "write", "lookup", "lookup",
                         "remap", "pin", "resize"])
        n = rng.randrange(N_KEYS)
        if op == "read":
            admit(_chunk(LbnKey(0, n), step))
        elif op == "write":
            admit(_chunk(FhoKey(n, 1, 0), step, dirty=True))
        elif op == "lookup":
            store.resolve(FhoKey(n, 1, 0), LbnKey(0, n))
        elif op == "remap":
            store.remap(FhoKey(n, 1, 0), LbnKey(0, rng.randrange(N_KEYS)))
        elif op == "pin":
            if len(pinned) == 2:
                pinned.pop(0).unpin()
            chunk = store.peek(FhoKey(n, 1, 0), LbnKey(0, n))
            if chunk is not None:
                chunk.pin()
                pinned.append(chunk)
        else:
            dirty.extend(c.key for c in store.resize(
                rng.randrange(4, 11) * FOOTPRINT))
        orders.append([c.key for c in store.chunks()])
    rank = sorted(range(len(made)), key=lambda i: id(made[i]))
    return (victims, dirty, orders,
            _kernel_counters(store.kernel_metrics)), rank


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_store_program_is_address_independent(policy):
    plain, plain_rank = _program(policy, decoys=False)
    shuffled, shuffled_rank = _program(policy, decoys=True)
    assert plain_rank != shuffled_rank  # the decoys moved the items
    victims, dirty, orders, counters = plain
    assert counters["evict_clean"] and counters["evict_dirty"]
    assert counters["hit"] and counters["ghost_hit"]
    assert shuffled == plain


def _arc_cell(decoys: bool):
    if decoys:
        _shuffle_free_lists(6)
    testbed, events = sfs_cell("arc")
    counters = testbed.server_host.counters
    assert counters["cache.ncache.evict_dirty"].value > 0
    assert counters["ncache.remap"].value > 0
    return events, [_kernel_counters(cache.kernel_metrics)
                    for cache in (testbed.ncache.store, testbed.cache)]


def test_arc_nfs_cell_is_address_independent():
    assert _arc_cell(decoys=True) == _arc_cell(decoys=False)
