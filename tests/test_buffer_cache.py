"""Buffer cache: LRU order, clean-first eviction, capacity accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import BLOCK_SIZE, BufferCache
from repro.net.buffer import JunkPayload


def cache_of(nblocks: int) -> BufferCache:
    return BufferCache(nblocks * BLOCK_SIZE)


def fill(cache: BufferCache, lbns, dirty=False):
    for lbn in lbns:
        cache.make_room(1)
        cache.insert(lbn, JunkPayload(BLOCK_SIZE), dirty=dirty)


class TestBasics:
    def test_insert_lookup(self):
        cache = cache_of(4)
        fill(cache, [1])
        assert cache.lookup(1) is not None
        assert cache.lookup(2) is None

    def test_hit_miss_counters(self):
        cache = cache_of(4)
        fill(cache, [1])
        cache.lookup(1)
        cache.lookup(2)
        assert cache.counters["cache.bcache.hit"].value == 1
        assert cache.counters["cache.bcache.miss"].value == 1
        assert cache.hit_ratio() == 0.5

    def test_peek_has_no_side_effects(self):
        cache = cache_of(4)
        fill(cache, [1])
        cache.peek(1)
        cache.peek(2)
        assert cache.counters["cache.bcache.hit"].value == 0
        assert cache.counters["cache.bcache.miss"].value == 0

    def test_used_bytes(self):
        cache = cache_of(4)
        fill(cache, [1, 2])
        assert cache.used_bytes == 2 * BLOCK_SIZE
        assert len(cache) == 2

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferCache(BLOCK_SIZE - 1)

    def test_insert_without_room_rejected(self):
        cache = cache_of(1)
        fill(cache, [1])
        with pytest.raises(RuntimeError):
            cache.insert(2, JunkPayload(BLOCK_SIZE))

    def test_reinsert_same_lbn_no_room_needed(self):
        cache = cache_of(1)
        fill(cache, [1])
        cache.insert(1, JunkPayload(BLOCK_SIZE), dirty=True)
        assert cache.peek(1).dirty


class TestEviction:
    def test_lru_order(self):
        cache = cache_of(3)
        fill(cache, [1, 2, 3])
        cache.lookup(1)  # 2 is now LRU
        cache.make_room(1)
        assert 2 not in cache
        assert 1 in cache and 3 in cache

    def test_clean_evicted_before_dirty(self):
        cache = cache_of(3)
        fill(cache, [1], dirty=True)
        fill(cache, [2, 3])
        victims = cache.make_room(1)
        assert victims == []  # clean block 2 went silently
        assert 1 in cache and 2 not in cache

    def test_dirty_victims_returned_for_writeback(self):
        cache = cache_of(2)
        fill(cache, [1, 2], dirty=True)
        victims = cache.make_room(1)
        assert [v.lbn for v in victims] == [1]
        assert 1 in cache  # findable until its bytes are on disk
        victims[0].dirty = False  # written back
        assert cache.make_room(1) == [] and 1 not in cache

    def test_make_room_multiple_blocks(self):
        cache = cache_of(4)
        fill(cache, [1, 2, 3, 4])
        cache.make_room(3)
        assert len(cache) == 1

    def test_eviction_counters(self):
        cache = cache_of(2)
        fill(cache, [1])
        fill(cache, [2], dirty=True)
        cache.make_room(2)
        assert cache.counters["cache.bcache.evict_clean"].value == 1
        assert cache.counters["cache.bcache.evict_dirty"].value == 1


class TestDirtyTracking:
    def test_dirty_lbns_lru_order(self):
        cache = cache_of(4)
        fill(cache, [1, 2, 3], dirty=True)
        cache.lookup(1)
        assert cache.dirty_lbns() == [2, 3, 1]

    def test_invalidate(self):
        cache = cache_of(2)
        fill(cache, [1])
        cache.invalidate(1)
        assert 1 not in cache

    def test_clear(self):
        cache = cache_of(4)
        fill(cache, [1, 2])
        cache.clear()
        assert len(cache) == 0


class TestPinning:
    def test_pinned_pages_survive_eviction(self):
        cache = cache_of(2)
        fill(cache, [1, 2])
        assert cache.pin(1)
        cache.make_room(1)
        assert 1 in cache and 2 not in cache

    def test_pin_missing_returns_false(self):
        assert cache_of(2).pin(9) is False

    def test_unpin_reenables_eviction(self):
        cache = cache_of(2)
        fill(cache, [1, 2])
        cache.pin(1)
        cache.unpin(1)
        cache.lookup(2)  # 1 becomes LRU
        cache.make_room(1)
        assert 1 not in cache

    def test_pin_counts_nest(self):
        cache = cache_of(2)
        fill(cache, [1, 2])
        cache.pin(1)
        cache.pin(1)
        cache.unpin(1)
        cache.make_room(1)  # still pinned once
        assert 1 in cache

    def test_unpin_of_unpinned_raises(self):
        cache = cache_of(2)
        fill(cache, [1])
        cache.pin(1)
        cache.unpin(1)
        for lbn in (1, 9):  # unpinned, absent
            with pytest.raises(RuntimeError, match="unpin of unpinned"):
                cache.unpin(lbn)

    def test_all_pinned_raises(self):
        cache = cache_of(1)
        fill(cache, [1])
        cache.pin(1)
        with pytest.raises(RuntimeError):
            cache.make_room(1)

    def test_all_pinned_stall_is_typed_and_traced(self):
        from repro.cache import CacheStallError
        from repro.obs.trace import TraceBus

        class Clock:
            now = 0.0

        trace = TraceBus(clock=Clock()).enable()
        cache = BufferCache(2 * BLOCK_SIZE, trace=trace)
        fill(cache, [1, 2])
        cache.pin(1)
        cache.pin(2)
        with pytest.raises(CacheStallError):
            cache.make_room(1)
        stalls = [e for e in trace.events
                  if e.name == "bcache.evict_stalled"]
        assert len(stalls) == 1
        assert stalls[0].args["entries"] == 2
        assert stalls[0].args["capacity_bytes"] == 2 * BLOCK_SIZE

    def test_pinned_dirty_preferred_over_nothing(self):
        cache = cache_of(2)
        fill(cache, [1], dirty=True)
        fill(cache, [2], dirty=True)
        cache.pin(1)
        victims = cache.make_room(1)
        assert [v.lbn for v in victims] == [2]


class TestLruProperty:
    @given(ops=st.lists(st.tuples(st.sampled_from(["insert", "lookup"]),
                                  st.integers(0, 9)), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_lru(self, ops):
        """The cache must track an ordered-dict reference model."""
        capacity = 4
        cache = cache_of(capacity)
        model: dict = {}
        for op, lbn in ops:
            if op == "insert":
                if lbn not in model and len(model) == capacity:
                    victim = next(iter(model))
                    del model[victim]
                if cache.peek(lbn) is None:
                    cache.make_room(1)
                cache.insert(lbn, JunkPayload(BLOCK_SIZE))
                model.pop(lbn, None)
                model[lbn] = True
            else:
                hit = cache.lookup(lbn) is not None
                assert hit == (lbn in model)
                if hit:
                    model.pop(lbn)
                    model[lbn] = True
        assert set(model) == {e for e in range(10) if e in cache}
