"""The eviction kernel: budgets, victim selection, metrics."""

import pytest

from repro.cache import CacheKernel, CacheStallError, POLICIES, make_policy
from repro.obs.trace import TraceBus


class Item:
    """Minimal kernel item: the two attributes eviction cares about."""

    def __init__(self, dirty=False, pinned=False):
        self.dirty = dirty
        self.pinned = pinned


class FakeClock:
    now = 0.0


def kernel_of(nbytes, **kw):
    return CacheKernel("test", nbytes, **kw)


def fill(kernel, keys, dirty=False):
    out = {}
    for key in keys:
        kernel.make_room(1, key=key)
        out[key] = kernel.insert(key, Item(dirty=dirty), 1)
    return out


class TestBudget:
    def test_accounting(self):
        k = kernel_of(4)
        h = fill(k, "ab")
        assert k.used_bytes == 2 and k.free_bytes == 2 and len(k) == 2
        k.remove(h["a"])
        assert k.used_bytes == 1 and "a" not in [key for key, _ in k.items()]

    def test_make_room_evicts_lru_first(self):
        k = kernel_of(3)
        h = fill(k, "abc")
        k.touch(h["a"])  # b is now coldest
        k.make_room(1)
        assert {key for key, _ in k.items()} == {"a", "c"}
        assert h["b"] not in k

    def test_dirty_victims_returned(self):
        k = kernel_of(2)
        fill(k, "a", dirty=True)
        fill(k, "b")
        victims = k.make_room(2)
        assert [v.dirty for v in victims] == [True]

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
        # itself; it now shares make_room's.
        k = kernel_of(8, clean_first=clean_first)
        k.set_ghost_admit(lambda item: item.name != "a")
        kinds = {"b": "dirty", "e": "dirty", "c": "pinned", "g": "both"}
        for name in "abcdefgh":
            kind = kinds.get(name, "clean")
            item = Item(dirty=kind in ("dirty", "both"),
                        pinned=kind in ("pinned", "both"))
            item.name = name
            k.insert(name, item, 1)
        seen = []
        victims = k.resize(4, on_evict=lambda item: seen.append(item.name))
        assert "".join(seen) == gone
        assert "".join(v.name for v in victims) == dirty_gone
        assert (k.capacity_bytes, k.used_bytes) == (4, 4)
        assert k.counters["cache.test.evict_dirty"].value == len(dirty_gone)
        assert k.counters["cache.test.evict_clean"].value \
            == 4 - len(dirty_gone)
        # "a" failed the admit predicate: evicted without a ghost.
        assert "".join(n for n in "abcdefgh" if k.policy.ghost_hit(n)) \
            == gone.replace("a", "")
        assert k.resize(10) == [] and seen == list(gone)
        assert (k.capacity_bytes, k.used_bytes) == (10, 4)
        k.resize(2)  # leaves the two pinned entries
        assert [key for key, _ in k.items()] == ["c", "g"]
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
        k.insert("a", Item(pinned=True), 1)
        fill(k, "b")
        k.make_room(1)
        assert [key for key, _ in k.items()] == ["a"]

    def test_clean_first_prefers_clean_over_older_dirty(self):
        k = kernel_of(2, clean_first=True)
        fill(k, "a", dirty=True)
        fill(k, "b")
        victims = k.make_room(1)
        assert victims == [] and [key for key, _ in k.items()] == ["a"]

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
        for policy in sorted(POLICIES):
            k = kernel_of(4, policy=policy)
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
        assert [item for _, item in k.items()] == [resident]

    def test_rekey_in_place_keeps_position(self):
        for policy in sorted(POLICIES):
            k = kernel_of(3, policy=policy)
            h = fill(k, "abc")
            k.touch(h["b"])  # SLRU and ARC: "b" moves to a second list
            before = [item for _, item in k.items()]
            for name in "ab":
                k.rekey(h[name], name.upper())
            assert [item for _, item in k.items()] == before
            assert {key for key, _ in k.items()} == {"A", "B", "c"}

    def test_residency_is_membership(self):
        k = kernel_of(2)
        h = fill(k, "a")["a"]
        assert h in k and Item() not in k
        k.remove(h)
        assert h not in k


class TestMetrics:
    def test_hit_miss_ghost(self):
        k = kernel_of(2)
        h = fill(k, "ab")
        k.touch(h["a"])
        miss = k.lookup_in({})  # an index with every key absent
        miss("c")
        assert k.counters["cache.test.hit"].value == 1
        assert k.counters["cache.test.miss"].value == 1
        assert k.counters["cache.test.ghost_hit"].value == 0
        k.make_room(1)  # evicts b -> ghost
        miss("b")
        assert k.counters["cache.test.ghost_hit"].value == 1
        assert k.counters["cache.test.evict_clean"].value == 1

    def test_remove_records_no_ghost(self):
        k = kernel_of(2)
        h = fill(k, "a")
        k.remove(h["a"])
        k.lookup_in({})("a")
        assert k.counters["cache.test.ghost_hit"].value == 0

    def test_dirty_evict_counter(self):
        k = kernel_of(1)
        fill(k, "a", dirty=True)
        k.make_room(1)
        assert k.counters["cache.test.evict_dirty"].value == 1


class TestPolicyRegistry:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("mru")

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_policy_drives_the_kernel(self, name):
        k = kernel_of(4, policy=name)
        assert k.policy_name == name
        h = fill(k, "abcdef")  # forces evictions through the policy
        assert len(k) == 4 and k.used_bytes == 4
        live = [x for x in h.values() if x in k]
        k.touch(live[0])
        k.make_room(1)
        assert len(k) == 3
