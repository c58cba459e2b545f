"""Buffer-lifecycle sanitizer: each failure mode provably fires.

Every test provokes its violation through the real instrumented code
paths (NCacheStore insert/evict/remap, Chunk.pin, BufferCache.insert,
Simulator.run) inside a scoped ``sanitize()`` so the suite-wide guard in
conftest.py never sees the deliberately-broken lifecycles.
"""

import pytest

from repro.check.sanitizer import (
    BufferSanitizer,
    ChunkState,
    SanitizerError,
    ViolationKind,
    active,
    disable,
    enable,
    sanitize,
)
from repro.core import FhoKey, LbnKey
from repro.core.chunk import Chunk
from repro.core.store import NCacheStore
from repro.fs import BufferCache
from repro.net import Endpoint
from repro.net.buffer import BufferChain, NetBuffer, VirtualPayload
from repro.net.network import Datagram
from repro.sim import Simulator

from chunk_reference import chunk_of_buffers


def make_chunk(key, nbytes=4096, dirty=False, tag=1):
    buf = NetBuffer(payload=VirtualPayload(tag, 0, nbytes))
    return chunk_of_buffers(key, [buf], dirty=dirty)


def make_store(capacity=1 << 20):
    return NCacheStore(capacity_bytes=capacity)


def make_dgram():
    chain = BufferChain([NetBuffer(payload=VirtualPayload(9, 0, 128))])
    return Datagram(protocol="udp", src=Endpoint("a0", 1),
                    dst=Endpoint("b0", 2), message=None, chain=chain,
                    n_frames=1, wire_bytes=128)


class TestLeak:
    def test_dirty_evict_without_writeback_is_a_leak(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(FhoKey(1, 1, 0), dirty=True)
            store.insert(chunk)
            store.drop(chunk)
            leaks = san.check_leaks()
        assert [v.kind for v in leaks] == [ViolationKind.LEAK]
        assert "never written back" in leaks[0].message

    def test_writeback_clears_the_pending_leak(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(FhoKey(1, 1, 0), dirty=True)
            store.insert(chunk)
            store.drop(chunk)
            san.chunk_written_back(chunk)
            assert san.check_leaks() == []

    def test_chunk_pinned_at_simulation_end_is_a_leak(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(LbnKey(0, 7))
            store.insert(chunk)
            chunk.pin()
            leaks = san.check_leaks()
        assert [v.kind for v in leaks] == [ViolationKind.LEAK]
        assert "pinned" in leaks[0].message

    def test_sim_run_drain_triggers_the_sweep(self):
        with sanitize() as san:
            sim = Simulator()
            store = make_store()
            chunk = make_chunk(FhoKey(2, 1, 0), dirty=True)
            store.insert(chunk)
            sim.schedule(1.0, store.drop, chunk)
            # Only a cancelled timer is left after the drop: draining it
            # ends the simulation once, with the clock where it was.
            sim.call_later(5.0, store.drop, chunk).cancel()
            sim.run()
            assert len(san.of_kind(ViolationKind.LEAK)) == 1
            assert sim.now == 1.0

    def test_clean_lifecycle_reports_nothing(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(LbnKey(0, 1))
            store.insert(chunk)
            store.drop(chunk)
            assert san.check_leaks() == []
            assert san.violations == []


class TestDoubleSubstitution:
    def test_same_reply_substituted_twice_fires(self):
        with sanitize() as san:
            dgram = make_dgram()
            san.reply_substituted(dgram)
            san.reply_substituted(dgram)
        assert [v.kind for v in san.violations] == \
            [ViolationKind.DOUBLE_SUBSTITUTION]

    def test_distinct_replies_are_fine(self):
        with sanitize() as san:
            san.reply_substituted(make_dgram())
            san.reply_substituted(make_dgram())
            assert san.violations == []

    def test_it_is_a_hard_violation(self):
        san = BufferSanitizer()
        dgram = make_dgram()
        san.reply_substituted(dgram)
        san.reply_substituted(dgram)
        assert san.hard_violations()

    def test_strict_mode_raises_at_the_call_site(self):
        with sanitize(strict=True) as san:
            dgram = make_dgram()
            san.reply_substituted(dgram)
            with pytest.raises(SanitizerError):
                san.reply_substituted(dgram)


class TestUseAfterEvict:
    def test_pin_of_an_evicted_chunk_fires(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(LbnKey(0, 3))
            store.insert(chunk)
            store.drop(chunk)
            chunk.pin()  # instrumented: Chunk.pin -> chunk_used
        found = san.of_kind(ViolationKind.USE_AFTER_EVICT)
        assert found and "pin" in found[0].message

    def test_substitution_miss_on_an_evicted_key_fires(self):
        # The dangling-key race the store's reclaim listeners exist to
        # prevent: the FS page still holds the key of a reclaimed chunk.
        with sanitize() as san:
            store = make_store()
            key = LbnKey(0, 5)
            store.insert(make_chunk(key))
            store.drop(store.peek_lbn(key))
            san.substitute_miss(None, key)
        found = san.of_kind(ViolationKind.USE_AFTER_EVICT)
        assert found and "junk served" in found[0].message

    def test_reinsert_makes_the_key_live_again(self):
        with sanitize() as san:
            store = make_store()
            key = LbnKey(0, 5)
            first = make_chunk(key, tag=1)
            store.insert(first)
            store.drop(first)
            store.insert(make_chunk(key, tag=2))
            san.substitute_miss(None, key)
            assert san.violations == []

    def test_remap_revives_the_lbn_key(self):
        # remap overwrites a stale LBN entry; the reclaim of the stale
        # chunk must not poison the key the remapped chunk now lives under.
        with sanitize() as san:
            store = make_store()
            lbn_key = LbnKey(0, 9)
            fho_key = FhoKey(4, 1, 0)
            store.insert(make_chunk(lbn_key, tag=1))
            store.insert(make_chunk(fho_key, tag=2, dirty=True))
            remapped = store.remap(fho_key, lbn_key)
            assert remapped is not None
            san.substitute_miss(fho_key, lbn_key)
            # fho_key moved away but the data is reachable under lbn_key;
            # only a *reclaimed* key counts as dangling.
            assert san.of_kind(ViolationKind.USE_AFTER_EVICT) == []

    def test_remap_of_an_evicted_chunk_fires(self):
        with sanitize() as san:
            chunk = make_chunk(FhoKey(5, 1, 0), dirty=True)
            san.chunk_cached(chunk)
            san.chunk_evicted(chunk)
            san.chunk_remapped(chunk, chunk.key)
        found = san.of_kind(ViolationKind.USE_AFTER_EVICT)
        assert found and "remap" in found[0].message


class TestAliasing:
    def test_fs_page_holding_a_live_chunks_payload_fires(self):
        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = chunk_of_buffers(LbnKey(0, 11),
                                     [NetBuffer(payload=payload)])
            store.insert(chunk)
            cache = BufferCache(1 << 20)
            cache.insert(11, payload)  # double-buffering: the bug §3.2 bans
        found = san.of_kind(ViolationKind.ALIASING)
        assert found and "aliases" in found[0].message
        assert san.hard_violations()

    def test_key_sized_page_is_fine(self):
        from repro.core import KeyedPayload

        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            store.insert(chunk_of_buffers(LbnKey(0, 11),
                                          [NetBuffer(payload=payload)]))
            cache = BufferCache(1 << 20)
            cache.insert(11, KeyedPayload(4096, lbn_key=LbnKey(0, 11)))
            assert san.violations == []

    def test_evicted_chunks_payload_may_be_cached(self):
        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = chunk_of_buffers(LbnKey(0, 11),
                                     [NetBuffer(payload=payload)])
            store.insert(chunk)
            store.drop(chunk)
            cache = BufferCache(1 << 20)
            cache.insert(11, payload)  # ownership was released at evict
            assert san.of_kind(ViolationKind.ALIASING) == []


class TestCompactChunks:
    """A compact chunk (``Chunk.from_payload``) owns one payload and no
    buffer list.  Every violation kind fires on one, and no sanitizer
    hook builds the list: if one did, every warm-started chunk would
    become a buffer-list chunk at insert and the segment-lazy
    substitution path would never run under the suite's fixture."""

    @staticmethod
    def compact(key, payload=None, dirty=False):
        return Chunk.from_payload(
            key, payload or VirtualPayload(3, 0, 4096), 1448, dirty=dirty)

    def test_bulk_load_insert_evict_remap_leave_it_compact(self):
        with sanitize() as san:
            store = make_store()
            warm = [self.compact(LbnKey(0, n)) for n in range(4)]
            store.bulk_load(iter(warm), warm[0].footprint(160, 64))
            dirty = self.compact(FhoKey(1, 1, 0), dirty=True)
            store.insert(dirty)
            store.remap(FhoKey(1, 1, 0), LbnKey(0, 0))  # overwrites warm[0]
            store.drop(warm[1])
            assert san.violations == []
        assert all(c.peek_buffers() is None for c in warm + [dirty])

    def test_leak(self):
        with sanitize() as san:
            store = make_store()
            chunk = self.compact(FhoKey(1, 1, 0), dirty=True)
            store.insert(chunk)
            store.drop(chunk)
            leaks = san.check_leaks()
        assert [v.kind for v in leaks] == [ViolationKind.LEAK]
        assert chunk.peek_buffers() is None

    def test_use_after_evict(self):
        with sanitize() as san:
            store = make_store()
            chunk = self.compact(LbnKey(0, 3))
            store.insert(chunk)
            store.drop(chunk)
            chunk.pin()
            san.substitute_miss(None, LbnKey(0, 3))
            san.chunk_remapped(chunk, chunk.key)
        messages = [v.message for v in
                    san.of_kind(ViolationKind.USE_AFTER_EVICT)]
        assert len(messages) == 3
        assert chunk.peek_buffers() is None

    def test_fs_page_holding_its_payload_is_aliasing(self):
        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = self.compact(LbnKey(0, 11), payload)
            store.insert(chunk)
            BufferCache(1 << 20).insert(11, payload)
        found = san.of_kind(ViolationKind.ALIASING)
        assert found and "aliases" in found[0].message
        assert chunk.peek_buffers() is None

    def test_fs_page_viewing_its_copied_memory_is_aliasing(self):
        # The new case: no buffer views exist to compare against, so the
        # mem identity must be read off the merged descriptor itself.
        with sanitize() as san:
            store = make_store()
            copied = VirtualPayload(7, 0, 4096).physical_copy()
            chunk = self.compact(LbnKey(0, 11), copied)
            store.insert(chunk)
            BufferCache(1 << 20).insert(11, copied.slice(0, 1024))
        found = san.of_kind(ViolationKind.ALIASING)
        assert found and "view of buffer memory" in found[0].message
        assert chunk.peek_buffers() is None

    def test_still_owned_after_an_observer_built_the_list(self):
        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = self.compact(LbnKey(0, 11), payload)
            store.insert(chunk)
            assert len(chunk.buffers) == 3  # e.g. a partial substitution
            BufferCache(1 << 20).insert(11, payload)
        assert san.of_kind(ViolationKind.ALIASING)

    def test_evicted_payload_may_be_cached(self):
        with sanitize() as san:
            store = make_store()
            copied = VirtualPayload(7, 0, 4096).physical_copy()
            chunk = self.compact(LbnKey(0, 11), copied)
            store.insert(chunk)
            chunk.buffers  # built while resident; released all the same
            store.drop(chunk)
            cache = BufferCache(1 << 20)
            cache.insert(11, copied)
            cache.insert(12, copied.slice(0, 512))
            assert san.of_kind(ViolationKind.ALIASING) == []


class TestStateTracking:
    def test_buffers_are_stamped_with_lifecycle_state(self):
        # The stamp is the sanitizer's own record of the chunk — what
        # its detection reads — not a mark left on the buffers.
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(LbnKey(0, 2))
            store.insert(chunk)
            assert san._chunks[id(chunk)].state is ChunkState.CACHED
            store.drop(chunk)
            assert san._chunks[id(chunk)].state is ChunkState.EVICTED

    def test_report_and_raise(self):
        san = BufferSanitizer()
        dgram = make_dgram()
        san.reply_substituted(dgram)
        san.reply_substituted(dgram)
        assert "double-substitution" in san.report()
        with pytest.raises(SanitizerError):
            san.raise_if_violations()


class TestActivation:
    def test_enable_disable_roundtrip(self):
        previous = disable()
        try:
            assert active() is None
            san = enable(strict=False)
            assert active() is san
            assert disable() is san
            assert active() is None
        finally:
            if previous is not None:
                enable(strict=previous.strict)

    def test_hooks_are_noops_without_a_sanitizer(self):
        previous = disable()
        try:
            store = make_store()
            chunk = make_chunk(LbnKey(0, 1), dirty=True)
            store.insert(chunk)
            store.drop(chunk)
            chunk.pin()  # would be use-after-evict under a sanitizer
        finally:
            if previous is not None:
                enable(strict=previous.strict)

    def test_sanitize_restores_the_previous_sanitizer(self):
        outer = active()
        with sanitize() as inner:
            assert active() is inner
        assert active() is outer
