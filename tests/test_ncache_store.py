"""NCacheStore: dual-index LRU store, remapping, eviction, pinning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheStallError
from repro.core import FhoKey, NCacheStore
from repro.net.buffer import JunkPayload, NetBuffer

from chunk_reference import chunk_of_buffers
from store_oracle import StoreMachine


FOOTPRINT = 4096 + 160 + 64  # the store's default overheads


def chunk_for(key, dirty=False, hint=None):
    return chunk_of_buffers(key, [NetBuffer(payload=JunkPayload(4096))],
                            dirty=dirty, lbn_hint=hint)


def store_of(n_chunks: int) -> NCacheStore:
    return NCacheStore(n_chunks * FOOTPRINT)


class TestInsertLookup:
    def test_lbn_roundtrip(self):
        store = store_of(4)
        chunk = chunk_for(1)
        store.insert(chunk)
        assert store.lookup_lbn(1) is chunk
        assert store.lookup_lbn(2) is None
        assert store.n_lbn == 1 and store.n_fho == 0

    def test_fho_roundtrip(self):
        store = store_of(4)
        chunk = chunk_for(FhoKey(1, 1, 0), dirty=True)
        store.insert(chunk)
        assert store.lookup_fho(FhoKey(1, 1, 0)) is chunk
        assert store.n_fho == 1

    def test_used_bytes_accounts_footprint(self):
        store = store_of(4)
        store.insert(chunk_for(1))
        assert store.used_bytes == FOOTPRINT

    def test_overwrite_same_key_replaces(self):
        store = store_of(4)
        old = chunk_for(FhoKey(1, 1, 0))
        new = chunk_for(FhoKey(1, 1, 0))
        store.insert(old)
        store.insert(new)
        assert store.lookup_fho(FhoKey(1, 1, 0)) is new
        assert store.n_chunks == 1
        assert store.counters["ncache.overwrite"].value == 1

    def test_insert_without_room_rejected(self):
        store = store_of(1)
        store.insert(chunk_for(1))
        with pytest.raises(RuntimeError):
            store.insert(chunk_for(2))

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            NCacheStore(100)

    def test_capacity_holds_at_least_one_single_buffer_chunk(self):
        # One chunk's bytes are not enough: a chunk occupies its
        # footprint, so a store one byte short of it could never admit
        # one; a store of exactly one footprint admits one.
        for capacity in (4096, FOOTPRINT - 1):
            with pytest.raises(ValueError, match="footprint"):
                NCacheStore(capacity)
        store = NCacheStore(FOOTPRINT)
        assert store.make_room(FOOTPRINT) == []
        store.insert(chunk_for(1))
        assert store.used_bytes == store.capacity_bytes

    def test_hit_miss_counters(self):
        store = store_of(2)
        store.insert(chunk_for(1))
        store.lookup_lbn(1)
        store.lookup_lbn(9)
        store.lookup_fho(FhoKey(1, 1, 0))
        snap = store.counters.snapshot()
        assert snap["cache.ncache.hit"] == 1
        assert snap["cache.ncache.miss"] == 2  # one per index

    def test_peek_is_not_cache_traffic(self):
        store = store_of(1)
        store.insert(chunk_for(1))
        store.make_room(FOOTPRINT)  # evicts LBN 1
        store.insert(chunk_for(FhoKey(1, 1, 0)))
        before = store.counters.snapshot()
        assert store.peek_fho(FhoKey(1, 1, 0)) is not None
        assert store.peek_lbn(1) is None  # evicted
        assert store.peek(FhoKey(9, 9, 0), 9) is None
        assert store.counters.snapshot() == before


class TestResolve:
    def test_fho_wins_over_lbn(self):
        store = store_of(4)
        lbn_chunk = chunk_for(1)
        fho_chunk = chunk_for(FhoKey(2, 1, 0), dirty=True)
        store.insert(lbn_chunk)
        store.insert(fho_chunk)
        got = store.resolve(FhoKey(2, 1, 0), 1)
        assert got is fho_chunk

    def test_falls_back_to_lbn(self):
        store = store_of(4)
        lbn_chunk = chunk_for(1)
        store.insert(lbn_chunk)
        assert store.resolve(FhoKey(9, 1, 0), 1) is lbn_chunk

    def test_none_when_absent(self):
        store = store_of(4)
        assert store.resolve(FhoKey(9, 1, 0), 9) is None
        assert store.resolve(None, None) is None


class TestEviction:
    def test_lru_eviction_order(self):
        store = store_of(2)
        a, b = chunk_for(1), chunk_for(2)
        store.insert(a)
        store.insert(b)
        store.lookup_lbn(1)  # b becomes LRU
        store.make_room(FOOTPRINT)
        assert store.peek_lbn(2) is None
        assert store.peek_lbn(1) is a

    def test_dirty_victims_returned(self):
        store = store_of(1)
        dirty = chunk_for(FhoKey(1, 1, 0), dirty=True)
        store.insert(dirty)
        victims = store.make_room(FOOTPRINT)
        assert victims == [dirty]
        # Written back first, evicted after: still findable meanwhile.
        assert store.peek_fho(FhoKey(1, 1, 0)) is dirty

    def test_pinned_chunks_skipped(self):
        store = store_of(2)
        a, b = chunk_for(1), chunk_for(2)
        store.insert(a)
        store.insert(b)
        a.pin()
        store.make_room(FOOTPRINT)
        assert store.peek_lbn(1) is a
        assert store.peek_lbn(2) is None

    def test_all_pinned_raises(self):
        store = store_of(1)
        chunk = chunk_for(1)
        store.insert(chunk)
        chunk.pin()
        with pytest.raises(RuntimeError):
            store.make_room(FOOTPRINT)

    def test_reclaim_listeners_notified(self):
        store = store_of(1)
        seen = []
        store.reclaim_listeners.append(seen.append)
        chunk = chunk_for(1)
        store.insert(chunk)
        store.make_room(FOOTPRINT)
        assert seen == [chunk]

    def test_drop_removes_explicitly(self):
        store = store_of(2)
        chunk = chunk_for(1)
        store.insert(chunk)
        store.drop(chunk)
        assert store.n_chunks == 0
        store.drop(chunk)  # idempotent


class TestRemap:
    def test_remap_moves_between_indexes(self):
        store = store_of(4)
        chunk = chunk_for(FhoKey(3, 1, 0), dirty=True)
        store.insert(chunk)
        got = store.remap(FhoKey(3, 1, 0), 44)
        assert got is chunk
        assert chunk.key == 44
        assert not chunk.dirty
        assert store.peek_fho(FhoKey(3, 1, 0)) is None
        assert store.peek_lbn(44) is chunk

    def test_remap_overwrites_stale_lbn_entry(self):
        store = store_of(4)
        stale = chunk_for(44)
        fresh = chunk_for(FhoKey(3, 1, 0), dirty=True)
        store.insert(stale)
        store.insert(fresh)
        store.remap(FhoKey(3, 1, 0), 44)
        assert store.peek_lbn(44) is fresh
        assert store.n_chunks == 1
        assert store.counters["ncache.remap_overwrite"].value == 1

    @pytest.mark.parametrize("how", ["remap", "overwrite"])
    def test_a_pinned_chunk_hands_its_pins_to_its_replacement(self, how):
        """Whoever pinned the replaced chunk holds a key that now resolves
        to its replacement: that one stays until the pin is released,
        and releasing the old chunk's pin releases it."""
        store = store_of(2)
        key = 9 if how == "remap" else FhoKey(1, 1, 0)
        old = chunk_for(key, dirty=how == "overwrite")
        store.insert(old)
        old.pin()
        if how == "remap":
            new = chunk_for(FhoKey(1, 1, 0), dirty=True)
            store.insert(new)
            store.remap(FhoKey(1, 1, 0), key)
        else:
            new = chunk_for(key, dirty=True)
            store.insert(new)
        assert (old.pins, new.pins, old.heir) == (0, 1, new)
        new.dirty = False
        with pytest.raises(CacheStallError):
            store.make_room(2 * FOOTPRINT)
        old.unpin()
        assert not new.pinned
        assert store.make_room(2 * FOOTPRINT) == []

    def test_remap_missing_fho_returns_none(self):
        store = store_of(4)
        assert store.remap(FhoKey(9, 1, 0), 1) is None

    def test_insert_overwrite_keeps_key_resolvable_for_listeners(self):
        """Regression: replacing a chunk (retransmitted NFS write) must
        install the new mapping before reclaiming the old one, or the
        reclaim listener invalidates the (dirty!) FS page for the block
        and the write is lost."""
        store = store_of(4)
        observed = []

        def listener(chunk):
            observed.append(
                store.peek_fho(FhoKey(1, 1, 0)) is not None)

        store.reclaim_listeners.append(listener)
        store.insert(chunk_for(FhoKey(1, 1, 0), dirty=True))
        store.insert(chunk_for(FhoKey(1, 1, 0), dirty=True))  # overwrite
        assert observed == [True]

    def test_stale_removal_keeps_block_resolvable_for_listeners(self):
        store = store_of(4)
        observed = []

        def listener(chunk):
            # During the stale chunk's reclaim the new mapping must
            # already be in place (remap-before-remove ordering).
            observed.append(
                store.peek_lbn(44) is not None)

        store.reclaim_listeners.append(listener)
        store.insert(chunk_for(44))
        store.insert(chunk_for(FhoKey(3, 1, 0), dirty=True))
        store.remap(FhoKey(3, 1, 0), 44)
        assert observed == [True]


class TestModelProperty:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["insert_lbn", "insert_fho", "touch",
                                   "remap"]),
                  st.integers(0, 5)),
        max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_indexes_consistent_with_lru_set(self, ops):
        """Whatever the op sequence: each index holds what the paper's
        store holds under that key, in its LRU order, within capacity."""
        machine = StoreMachine()
        store = machine.store
        for op, n in ops:
            if op == "insert_lbn":
                machine.data_in(n)
            elif op == "insert_fho":
                machine.nfs_write(FhoKey(n, 1, 0), n)
            elif op == "touch":
                machine.lookup(n)
            else:
                machine.remap(FhoKey(n, 1, 0), n)
            machine.agrees()
            assert store.used_bytes <= store.capacity_bytes
            assert store.n_chunks == store.n_lbn + store.n_fho
            assert all(store.peek(chunk.key, chunk.key) is chunk
                       for chunk in store.chunks())
