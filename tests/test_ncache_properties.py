"""Randomized invariant tests for the NCache store.

A reference model (a plain Python LRU list) is driven through the same
randomized op stream as the real :class:`NCacheStore`; after every op
the two must agree on membership, LRU order and payload bytes.  The op
streams come from :func:`repro.sim.rng.substream` — the repo's own
deterministic randomness, so a failure always reproduces bit-for-bit
from the seed (no external property-testing framework involved).

Invariants locked here:

* eviction follows LRU order exactly (head of the recency list first);
* a pinned chunk is never evicted, whatever the op stream;
* FHO→LBN remapping overwrites a stale LBN entry and drops the FHO one;
* cached payloads stay byte-exact through insert/touch/evict/remap.
"""

from __future__ import annotations

import pytest

from repro.core import Chunk, FhoKey, LbnKey, NCacheStore
from repro.net.buffer import BytesPayload, NetBuffer
from repro.sim.rng import substream

from chunk_reference import chunk_of_buffers

CHUNK = 4096
FOOTPRINT = CHUNK + 160 + 64
CAPACITY_CHUNKS = 6
N_KEYS = 10
OPS_PER_STREAM = 400


def _data(n: int, version: int) -> bytes:
    return bytes([(n * 31 + version) % 256]) * CHUNK


def _key(kind: str, n: int):
    return LbnKey(0, n) if kind == "lbn" else FhoKey(n, 1, 0)


def _chunk(kind: str, n: int, version: int) -> Chunk:
    return chunk_of_buffers(
        _key(kind, n), [NetBuffer(payload=BytesPayload(_data(n, version)))],
        dirty=(kind == "fho"))


class RefStore:
    """Executable spec: what NCacheStore must do, in ~40 lines."""

    def __init__(self, capacity_chunks: int) -> None:
        self.cap = capacity_chunks
        self.entries: list = []  # LRU order, least-recent first

    def find(self, kind: str, n: int):
        for e in self.entries:
            if e["kind"] == kind and e["n"] == n:
                return e
        return None

    def make_room(self) -> list:
        evicted = []
        while len(self.entries) >= self.cap:
            victim = next((e for e in self.entries if not e["pinned"]), None)
            assert victim is not None, "test keeps pin headroom"
            self.entries.remove(victim)
            evicted.append(victim)
        return evicted

    def insert(self, kind: str, n: int, version: int) -> None:
        existing = self.find(kind, n)
        if existing is not None:
            self.entries.remove(existing)
        self.entries.append({"kind": kind, "n": n, "pinned": False,
                             "data": _data(n, version)})

    def touch(self, kind: str, n: int):
        e = self.find(kind, n)
        if e is not None:
            self.entries.remove(e)
            self.entries.append(e)
        return e

    def remap(self, n: int, m: int) -> None:
        e = self.find("fho", n)
        if e is None:
            return
        stale = self.find("lbn", m)
        e["kind"], e["n"] = "lbn", m  # LRU position unchanged
        if stale is not None and stale is not e:
            self.entries.remove(stale)


def _store_order(store: NCacheStore) -> list:
    out = []
    for chunk in store.chunks():
        kind = "lbn" if isinstance(chunk.key, LbnKey) else "fho"
        n = chunk.key.lbn if kind == "lbn" else chunk.key.ino
        out.append((kind, n))
    return out


def _ref_order(ref: RefStore) -> list:
    return [(e["kind"], e["n"]) for e in ref.entries]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_store_agrees_with_reference_model(seed):
    rng = substream(seed, "ncache-properties")
    store = NCacheStore(CAPACITY_CHUNKS * FOOTPRINT,
                        per_buffer_overhead=160, per_chunk_overhead=64)
    ref = RefStore(CAPACITY_CHUNKS)
    # Pinning protects against *capacity* reclamation (make_room), not
    # against being superseded under the same key by newer data — the
    # in-flight reply that pinned the chunk holds its own reference, so
    # index replacement is safe.  Scope the listener accordingly.
    evicted_pinned = []
    in_make_room = [False]
    store.reclaim_listeners.append(
        lambda c: evicted_pinned.append(c)
        if c.pinned and in_make_room[0] else None)
    pinned: list = []  # (chunk, ref_entry) pairs
    version = 0

    for _ in range(OPS_PER_STREAM):
        op = rng.choice(["insert_lbn", "insert_fho", "lookup", "resolve",
                         "remap", "pin", "unpin", "drop"])
        n = rng.randrange(N_KEYS)
        version += 1
        if op in ("insert_lbn", "insert_fho"):
            kind = op[-3:]
            in_make_room[0] = True
            store.make_room(FOOTPRINT)
            in_make_room[0] = False
            ref.make_room()
            store.insert(_chunk(kind, n, version))
            ref.insert(kind, n, version)
        elif op == "lookup":
            kind = rng.choice(["lbn", "fho"])
            got = (store.lookup_lbn(LbnKey(0, n)) if kind == "lbn"
                   else store.lookup_fho(FhoKey(n, 1, 0)))
            expected = ref.touch(kind, n)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.payload().materialize() == expected["data"]
        elif op == "resolve":
            got = store.resolve(FhoKey(n, 1, 0), LbnKey(0, n))
            # FHO-first: dirty written data always wins (§3.4).
            expected = ref.touch("fho", n) or ref.touch("lbn", n)
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.payload().materialize() == expected["data"]
        elif op == "remap":
            m = rng.randrange(N_KEYS)
            chunk = store.remap(FhoKey(n, 1, 0), LbnKey(0, m))
            ref.remap(n, m)
            if chunk is not None:
                assert chunk.key == LbnKey(0, m) and not chunk.dirty
                assert store.peek_fho(FhoKey(n, 1, 0)) is None
                assert store.peek_lbn(LbnKey(0, m)) is chunk
        elif op == "pin":
            # Keep headroom: never pin more than half the capacity, so
            # make_room always has a victim available.
            live = _store_order(store)
            if live and len(pinned) < CAPACITY_CHUNKS // 2:
                kind, k = live[rng.randrange(len(live))]
                chunk = (store.peek_lbn(LbnKey(0, k))
                         if kind == "lbn"
                         else store.peek_fho(FhoKey(k, 1, 0)))
                entry = ref.find(kind, k)
                if chunk is not None and not chunk.pinned:
                    chunk.pin()
                    entry["pinned"] = True
                    pinned.append((chunk, entry))
        elif op == "unpin":
            if pinned:
                chunk, entry = pinned.pop(rng.randrange(len(pinned)))
                chunk.unpin()
                entry["pinned"] = False
        elif op == "drop":
            kind = rng.choice(["lbn", "fho"])
            chunk = (store.peek_lbn(LbnKey(0, n))
                     if kind == "lbn"
                     else store.peek_fho(FhoKey(n, 1, 0)))
            entry = ref.find(kind, n)
            if chunk is not None and not chunk.pinned:
                store.drop(chunk)
                ref.entries.remove(entry)

        # Global invariants, every step:
        assert _store_order(store) == _ref_order(ref)
        assert store.n_chunks == len(ref.entries)
        assert store.used_bytes == store.n_chunks * FOOTPRINT
        assert store.n_chunks == store.n_lbn + store.n_fho
        assert evicted_pinned == []  # a pinned chunk was never reclaimed

    # End state: every surviving payload is byte-exact.
    for kind, n in _store_order(store):
        chunk = (store.peek_lbn(LbnKey(0, n)) if kind == "lbn"
                 else store.peek_fho(FhoKey(n, 1, 0)))
        assert chunk.payload().materialize() == ref.find(kind, n)["data"]


def test_recency_order_survives_object_churn():
    """Regression for the ``id(chunk)``-keyed LRU the store used to keep.

    Create and drop chunks in bulk so CPython's allocator recycles their
    addresses, then verify the survivors' recency order is exactly what
    the op sequence dictates.  Under ``id()`` keys a recycled address
    aliased a dead entry and silently corrupted the order; the kernel
    keys on the chunk itself, held strongly, which makes this impossible.
    """
    import gc

    store = NCacheStore(CAPACITY_CHUNKS * FOOTPRINT,
                        per_buffer_overhead=160, per_chunk_overhead=64)
    keepers = []  # every keeper chunk, in insertion order
    for round_no in range(50):
        transient = []
        for i in range(CAPACITY_CHUNKS - 2):
            c = _chunk("fho", 100 + i, round_no)
            store.make_room(FOOTPRINT)
            store.insert(c)
            transient.append(c)
        for c in transient:
            store.drop(c)
        del transient
        gc.collect()  # force address reuse for the next round's chunks
        keepers.append(_chunk("lbn", round_no % N_KEYS, round_no))
        store.make_room(FOOTPRINT)
        store.insert(keepers[-1])
    # The survivors are the most recent keeper keys in last-insertion
    # order: each round's 4 transients squeeze the keeper population to
    # 2 before a third is added, so rounds 47..49 (keys 7..9) remain —
    # and no transient ever aliased a keeper's slot.
    assert _store_order(store) == [("lbn", n) for n in range(7, 10)]
    # Order integrity: the survivors are exactly the last three keeper
    # objects (not equal-looking others), unique, in insertion order.
    survivors = list(store.chunks())
    assert len(survivors) == len({id(c) for c in survivors}) == 3
    assert all(c is k for c, k in zip(survivors, keepers[-3:]))
    # Index consistency: every survivor is reachable under its own key.
    for chunk in list(store.chunks()):
        assert store.peek_lbn(chunk.key) is chunk


@pytest.mark.parametrize("seed", [11, 12])
def test_pinned_survives_full_capacity_pressure(seed):
    """Insert far beyond capacity; the one pinned chunk always survives."""
    rng = substream(seed, "ncache-pin-pressure")
    store = NCacheStore(CAPACITY_CHUNKS * FOOTPRINT,
                        per_buffer_overhead=160, per_chunk_overhead=64)
    protected = _chunk("lbn", 999, 0)
    store.insert(protected)
    protected.pin()
    for i in range(4 * CAPACITY_CHUNKS):
        n = rng.randrange(N_KEYS)
        store.make_room(FOOTPRINT)
        store.insert(_chunk("fho", n, i))
        assert store.peek_lbn(LbnKey(0, 999)) is protected
    protected.unpin()
    store.make_room(CAPACITY_CHUNKS * FOOTPRINT)  # now it may go
    assert store.peek_lbn(LbnKey(0, 999)) is None
