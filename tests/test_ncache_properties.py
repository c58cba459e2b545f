"""Randomized runs of the NCache store against the paper's, and its
recency order under allocator address reuse.

The seeded runs replay ``tests/store_oracle.py``'s rules from a
:func:`repro.sim.rng.substream` op stream, so a failure reproduces
bit-for-bit from its seed, and compare the real store with
:class:`PaperStore` after every op.  The churn test keeps what that
model cannot see: object identity.
"""

from __future__ import annotations

import pytest

from repro.core import FhoKey
from repro.sim.rng import substream

from store_oracle import CAPACITY, StoreMachine
from test_ncache_store import FOOTPRINT, chunk_for, store_of

CAPACITY_CHUNKS = 6
N_KEYS = 10
#: The oracle's rules, weighted so the store is mostly full.
RULES = 3 * ["data_in", "nfs_write"] + 2 * ["lookup", "remap", "pin",
                                            "unpin"] \
    + ["resolve", "drop", "cold_restart"]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_store_agrees_with_reference_model(seed):
    """400 seeded rules: residency, order, dirty bits, pins, used_bytes,
    bytes, reclaims and writebacks agree after every one."""
    rng = substream(seed, "ncache-properties")
    machine = StoreMachine()
    for _ in range(400):
        op = rng.choice(RULES)
        fho, lbn = FhoKey(rng.randrange(5), 1, 0), rng.randrange(5)
        key = rng.choice([fho, lbn])
        args = {"data_in": (lbn,), "nfs_write": (fho, lbn), "resolve":
                (fho, lbn), "remap": (fho, lbn), "unpin": (rng.randrange(9),),
                "cold_restart": ()}.get(op, (key,))
        if op != "unpin" or machine.held:
            getattr(machine, op)(*args)
        machine.agrees()


@pytest.mark.parametrize("seed", [11, 12])
def test_pinned_survives_full_capacity_pressure(seed):
    """NFS writes far beyond capacity; the one pinned chunk survives
    them all, and goes once it is unpinned."""
    rng = substream(seed, "ncache-pin-pressure")
    machine, protected = StoreMachine(), 999
    machine.data_in(protected)
    machine.pin(protected)
    for _ in range(4 * CAPACITY):
        machine.nfs_write(FhoKey(rng.randrange(5), 1, 0), rng.randrange(5))
        machine.agrees()
        assert machine.store.peek_lbn(protected) is not None
    machine.unpin(0)
    for n in range(CAPACITY):  # now it may go
        machine.nfs_write(FhoKey(100 + n, 1, 0), n)
    machine.agrees()
    assert machine.store.peek_lbn(protected) is None


def test_recency_order_survives_object_churn():
    """Regression for the ``id(chunk)``-keyed LRU the store used to keep.

    Create and drop chunks in bulk so CPython's allocator recycles their
    addresses, then verify the survivors' recency order is exactly what
    the op sequence dictates.  Under ``id()`` keys a recycled address
    aliased a dead entry and silently corrupted the order; the kernel
    keys on the chunk itself, held strongly, which makes this impossible.
    """
    import gc

    store = store_of(CAPACITY_CHUNKS)
    keepers = []  # every keeper chunk, in insertion order
    for round_no in range(50):
        transient = []
        for i in range(CAPACITY_CHUNKS - 2):
            c = chunk_for(FhoKey(100 + i, 1, 0), dirty=True)
            store.make_room(FOOTPRINT)
            store.insert(c)
            transient.append(c)
        for c in transient:
            store.drop(c)
        del transient
        gc.collect()  # force address reuse for the next round's chunks
        keepers.append(chunk_for(round_no % N_KEYS))
        store.make_room(FOOTPRINT)
        store.insert(keepers[-1])
    # The survivors are the most recent keeper keys in last-insertion
    # order: each round's 4 transients squeeze the keeper population to
    # 2 before a third is added, so rounds 47..49 (keys 7..9) remain —
    # and no transient ever aliased a keeper's slot.
    assert [c.key for c in store.chunks()] == [7, 8, 9]
    # Order integrity: the survivors are exactly the last three keeper
    # objects (not equal-looking others), unique, in insertion order.
    survivors = list(store.chunks())
    assert len(survivors) == len({id(c) for c in survivors}) == 3
    assert all(c is k for c, k in zip(survivors, keepers[-3:]))
    # Index consistency: every survivor is reachable under its own key.
    for chunk in list(store.chunks()):
        assert store.peek_lbn(chunk.key) is chunk
