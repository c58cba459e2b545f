"""The eviction kernel: budgets, victim selection, metrics."""

import pytest

from repro.cache import CacheKernel, CacheStallError
from repro.obs.trace import TraceBus


class Item:
    """Minimal kernel item: the two attributes eviction cares about,
    and the key it was filled under (the kernel keeps no key)."""

    def __init__(self, dirty=False, pinned=False, key=None):
        self.dirty = dirty
        self.pinned = pinned
        self.key = key


class FakeClock:
    now = 0.0


def kernel_of(nbytes, **kw):
    return CacheKernel("test", nbytes, **kw)


def fill(kernel, keys, dirty=False):
    out = {}
    for key in keys:
        kernel.make_room(1, key=key)
        out[key] = kernel.insert(key, Item(dirty=dirty, key=key), 1)
    return out


def keys(kernel):
    """The resident items' keys, coldest first."""
    return [item.key for item in kernel.items()]


class TestBudget:
    def test_accounting(self):
        k = kernel_of(4)
        h = fill(k, "ab")
        assert k.used_bytes == 2 and k.free_bytes == 2 and len(k) == 2
        k.remove(h["a"])
        assert k.used_bytes == 1 and "a" not in keys(k)

    def test_make_room_evicts_lru_first(self):
        k = kernel_of(3)
        h = fill(k, "abc")
        k.touch(h["a"])  # b is now coldest
        k.make_room(1)
        assert set(keys(k)) == {"a", "c"}
        assert h["b"] not in k

    def test_dirty_victims_returned(self):
        k = kernel_of(2)
        fill(k, "a", dirty=True)
        fill(k, "b")
        victims = k.make_room(2)
        assert [v.dirty for v in victims] == [True]
        assert victims[0] in k  # written back first, evicted after
        victims[0].dirty = False
        assert k.make_room(2) == [] and len(k) == 0

    def test_insert_tolerates_transient_overshoot(self):
        k = kernel_of(1)
        fill(k, "a")
        k.insert("b", Item(), 1)  # replacement flow: install before reclaim
        assert k.used_bytes == 2
        k.make_room(0)
        assert k.used_bytes == 1

    def test_resize(self):
        k = kernel_of(4)
        fill(k, "abcd")
        victims = k.resize(2)
        assert victims == [] and k.used_bytes == 2 and k.capacity_bytes == 2
        assert k.resize(5) == [] and k.capacity_bytes == 5

    @pytest.mark.parametrize("clean_first, gone, dirty_gone", [
        (False, "abde", "be"), (True, "adfh", "")])
    def test_resize_evicts_like_make_room(self, clean_first, gone,
                                          dirty_gone):
        # Values pinned from the eviction loop resize() used to carry
        # itself; it now shares make_room's, write-back-first included:
        # a dirty victim comes back resident and is evicted, clean, by
        # the call after its writeback.
        k = kernel_of(8, clean_first=clean_first)
        kinds = {"b": "dirty", "e": "dirty", "c": "pinned", "g": "both"}
        for name in "abcdefgh":
            kind = kinds.get(name, "clean")
            item = Item(dirty=kind in ("dirty", "both"),
                        pinned=kind in ("pinned", "both"), key=name)
            k.insert(name, item, 1)
        seen = []

        def shed(victims):
            written = []
            while victims:
                written += victims
                for item in victims:
                    item.dirty = False  # written back
                victims = k.make_room(
                    0, on_evict=lambda item: seen.append(item.key))
            return written

        victims = shed(k.resize(
            4, on_evict=lambda item: seen.append(item.key)))
        assert "".join(seen) == gone
        assert "".join(v.key for v in victims) == dirty_gone
        assert (k.capacity_bytes, k.used_bytes) == (4, 4)
        assert k.counters["cache.test.evict_dirty"].value == len(dirty_gone)
        assert k.counters["cache.test.evict_clean"].value == 4
        assert k.resize(10) == [] and seen == list(gone)
        assert (k.capacity_bytes, k.used_bytes) == (10, 4)
        shed(k.resize(2))  # leaves the two pinned entries
        assert keys(k) == ["c", "g"]
        with pytest.raises(CacheStallError):
            k.resize(1)
        assert (k.capacity_bytes, k.used_bytes) == (1, 2)

    def test_capacity_assignment_defers_eviction(self):
        k = kernel_of(4)
        fill(k, "abcd")
        k.capacity_bytes = 2
        assert len(k) == 4  # sheds at the next make_room, not now
        k.make_room(0)
        assert len(k) == 2


class TestVictimSelection:
    def test_pinned_skipped(self):
        k = kernel_of(2)
        k.insert("a", Item(pinned=True, key="a"), 1)
        fill(k, "b")
        k.make_room(1)
        assert keys(k) == ["a"]

    def test_clean_first_prefers_clean_over_older_dirty(self):
        k = kernel_of(2, clean_first=True)
        fill(k, "a", dirty=True)
        fill(k, "b")
        victims = k.make_room(1)
        assert victims == [] and keys(k) == ["a"]

    def test_without_clean_first_oldest_goes(self):
        k = kernel_of(2)
        fill(k, "a", dirty=True)
        fill(k, "b")
        victims = k.make_room(1)
        assert [v.dirty for v in victims] == [True]

    def test_all_pinned_stalls(self):
        k = kernel_of(1)
        k.insert("a", Item(pinned=True), 1)
        with pytest.raises(CacheStallError):
            k.make_room(1)

    def test_stall_emits_trace_event(self):
        trace = TraceBus(clock=FakeClock()).enable()
        k = CacheKernel("test", 1, trace=trace,
                        stall_event="test.evict_stalled")
        k.insert("a", Item(pinned=True), 1)
        with pytest.raises(CacheStallError):
            k.make_room(1)
        stalls = [e for e in trace.events if e.name == "test.evict_stalled"]
        assert len(stalls) == 1
        assert stalls[0].args["entries"] == 1
        assert stalls[0].args["used_bytes"] == 1


class TestHandles:
    def test_an_item_is_its_own_handle(self):
        """The id(chunk) regression: residency is keyed on the item
        itself, held strongly, so an object that reuses a freed entry's
        address is never mistaken for it."""
        k = kernel_of(4)
        for i in range(200):
            item = Item()
            assert k.insert(i, item, 1) is item and item in k
            k.remove(item)
            assert item not in k
            del item
            assert Item() not in k  # likely at the freed address
        assert len(k) == 0 and k.used_bytes == 0

    def test_equal_items_are_distinct_handles(self):
        """Entries hash by identity: two equal-valued pages are two
        handles, and only the inserted one is resident."""
        from repro.fs.buffer_cache import CacheEntry
        from repro.net.buffer import JunkPayload
        payload = JunkPayload(4096)
        resident, twin = CacheEntry(7, payload), CacheEntry(7, payload)
        k = kernel_of(2)
        k.insert(7, resident, 1)
        assert resident in k and twin not in k
        with pytest.raises(KeyError):
            k.remove(twin)
        assert list(k.items()) == [resident]

    def test_rekey_in_place_keeps_position(self):
        """The kernel keeps no key: a remap leaves the recency list,
        and so the entry's position, exactly as it was."""
        k = kernel_of(3)
        h = fill(k, "abc")
        k.touch(h["b"])
        before = list(k._order.items())
        for name in "ab":
            k.rekey(h[name], name.upper())
        assert list(k._order.items()) == before
        assert keys(k) == ["a", "c", "b"]

    def test_residency_is_membership(self):
        k = kernel_of(2)
        h = fill(k, "a")["a"]
        assert h in k and Item() not in k
        k.remove(h)
        assert h not in k


class TestMetrics:
    def test_hit_miss_ghost(self):
        """Hits and misses count; there is no ghost list, so a miss on a
        key evicted an instant earlier is a plain miss."""
        k = kernel_of(2)
        h = fill(k, "ab")
        k.touch(h["a"])
        miss = k.lookup_in({})  # an index with every key absent
        miss("c")
        assert k.counters["cache.test.hit"].value == 1
        assert k.counters["cache.test.miss"].value == 1
        k.make_room(1)  # evicts b
        miss("b")
        assert k.counters["cache.test.miss"].value == 2
        assert k.counters["cache.test.evict_clean"].value == 1
        assert "cache.test.ghost_hit" not in k.counters.snapshot()

    def test_remove_records_no_ghost(self):
        """``remove`` is not an eviction: no counter moves, and the
        entry's bytes go back to the budget."""
        k = kernel_of(2)
        h = fill(k, "a")
        k.remove(h["a"])
        k.lookup_in({})("a")
        assert k.used_bytes == 0 and len(k) == 0
        assert {name: value for name, value in k.counters.snapshot().items()
                if value} == {"cache.test.miss": 1}

    def test_dirty_evict_counter(self):
        k = kernel_of(1)
        fill(k, "a", dirty=True)
        k.make_room(1)
        assert k.counters["cache.test.evict_dirty"].value == 1


class TestRecencyList:
    def test_one_int_per_entry_and_exact_bytes_back(self):
        """The recency list is the kernel's only per-entry record: item
        to its size, an ``int``.  ``remove`` and eviction each return
        exactly that entry's bytes to the budget."""
        k = kernel_of(100)
        a, b, c = (k.insert(key, Item(key=key), n)
                   for key, n in (("a", 30), ("b", 25), ("c", 40)))
        assert list(k._order.items()) == [(a, 30), (b, 25), (c, 40)]
        assert all(type(n) is int for n in k._order.values())
        assert k.used_bytes == 95
        k.remove(b)
        assert k.used_bytes == 70 and b not in k
        evicted = []
        assert k.make_room(31, on_evict=evicted.append) == []
        assert evicted == [a] and k.used_bytes == 40 and k.free_bytes == 60
        assert list(k._order.items()) == [(c, 40)]
        k.clear()
        assert (len(k), k.used_bytes) == (0, 0)

    def test_unknown_policy_rejected(self):
        """The third positional argument names the replacement, and the
        paper's LRU (§3.4) is the only one."""
        assert CacheKernel("k", 4, "lru").capacity_bytes == 4
        with pytest.raises(ValueError):
            CacheKernel("k", 4, "mru")
