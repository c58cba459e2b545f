"""Buffer-lifecycle sanitizer: each failure mode provably fires.

Every test provokes its violation through the real instrumented code
paths (NCacheStore insert/evict/remap, Chunk.pin, BufferCache.insert,
Simulator.run) inside a scoped ``sanitize()`` so the suite-wide guard in
conftest.py never sees the deliberately-broken lifecycles.  Every
violation raises :class:`SanitizerError` at the call that commits it.
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
from repro.core import FhoKey
from repro.core.chunk import Chunk
from repro.core.store import NCacheStore
from repro.experiments.parallel import RunSpec
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
            with pytest.raises(SanitizerError, match="never written back"):
                san.check_leaks()
        assert [v.kind for v in san.violations] == [ViolationKind.LEAK]

    def test_writeback_clears_the_pending_leak(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(FhoKey(1, 1, 0), dirty=True)
            store.insert(chunk)
            store.drop(chunk)
            san.chunk_written_back(chunk)
            san.check_leaks()
            assert san.violations == []

    def test_chunk_pinned_at_simulation_end_is_a_leak(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(7)
            store.insert(chunk)
            chunk.pin()
            with pytest.raises(SanitizerError, match="pinned"):
                san.check_leaks()
        assert [v.kind for v in san.violations] == [ViolationKind.LEAK]

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
            with pytest.raises(SanitizerError, match="leak"):
                sim.run()
            assert len(san.of_kind(ViolationKind.LEAK)) == 1
            assert sim.now == 1.0

    def test_clean_lifecycle_reports_nothing(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(1)
            store.insert(chunk)
            store.drop(chunk)
            san.check_leaks()
            assert san.violations == []


class TestDoubleSubstitution:
    def test_same_reply_substituted_twice_fires(self):
        with sanitize() as san:
            dgram = make_dgram()
            san.reply_substituted(dgram)
            with pytest.raises(SanitizerError):
                san.reply_substituted(dgram)
        assert [v.kind for v in san.violations] == \
            [ViolationKind.DOUBLE_SUBSTITUTION]

    def test_strict_mode_raises_at_the_call_site(self):
        # Strict is the only mode: a bare BufferSanitizer raises too.
        san = BufferSanitizer()
        dgram = make_dgram()
        san.reply_substituted(dgram)
        with pytest.raises(SanitizerError, match="substituted twice"):
            san.reply_substituted(dgram)

    def test_distinct_replies_are_fine(self):
        with sanitize() as san:
            san.reply_substituted(make_dgram())
            san.reply_substituted(make_dgram())
            assert san.violations == []


class TestUseAfterEvict:
    def test_pin_of_an_evicted_chunk_fires(self):
        with sanitize() as san:
            store = make_store()
            chunk = make_chunk(3)
            store.insert(chunk)
            store.drop(chunk)
            with pytest.raises(SanitizerError, match="pin touched"):
                chunk.pin()  # instrumented: Chunk.pin -> chunk_used
        assert [v.kind for v in san.violations] == \
            [ViolationKind.USE_AFTER_EVICT]

    def test_remap_of_an_evicted_chunk_fires(self):
        with sanitize() as san:
            chunk = make_chunk(FhoKey(5, 1, 0), dirty=True)
            san.chunk_cached(chunk)
            san.chunk_evicted(chunk)
            with pytest.raises(SanitizerError, match="remap of an evicted"):
                san.chunk_remapped(chunk, chunk.key)
        assert [v.kind for v in san.violations] == \
            [ViolationKind.USE_AFTER_EVICT]


class TestAliasing:
    def test_fs_page_holding_a_live_chunks_payload_fires(self):
        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = chunk_of_buffers(11, [NetBuffer(payload=payload)])
            store.insert(chunk)
            cache = BufferCache(1 << 20)
            with pytest.raises(SanitizerError, match="aliases"):
                cache.insert(11, payload)  # double-buffering: §3.2 bans it
        assert [v.kind for v in san.violations] == [ViolationKind.ALIASING]

    def test_key_sized_page_is_fine(self):
        from repro.core import KeyedPayload

        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            store.insert(chunk_of_buffers(11, [NetBuffer(payload=payload)]))
            cache = BufferCache(1 << 20)
            cache.insert(11, KeyedPayload(4096, lbn_key=11))
            assert san.violations == []

    def test_evicted_chunks_payload_may_be_cached(self):
        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = chunk_of_buffers(11, [NetBuffer(payload=payload)])
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
            warm = [self.compact(n) for n in range(4)]
            store.bulk_load(iter(warm), warm[0].footprint(160, 64))
            dirty = self.compact(FhoKey(1, 1, 0), dirty=True)
            store.insert(dirty)
            store.remap(FhoKey(1, 1, 0), 0)  # overwrites warm[0]
            store.drop(warm[1])
            assert san.violations == []
        assert all(c.peek_buffers() is None for c in warm + [dirty])

    def test_leak(self):
        with sanitize() as san:
            store = make_store()
            chunk = self.compact(FhoKey(1, 1, 0), dirty=True)
            store.insert(chunk)
            store.drop(chunk)
            with pytest.raises(SanitizerError, match="leak"):
                san.check_leaks()
        assert [v.kind for v in san.violations] == [ViolationKind.LEAK]
        assert chunk.peek_buffers() is None

    def test_use_after_evict(self):
        with sanitize() as san:
            store = make_store()
            chunk = self.compact(3)
            store.insert(chunk)
            store.drop(chunk)
            with pytest.raises(SanitizerError, match="use-after-evict"):
                chunk.pin()
            with pytest.raises(SanitizerError, match="use-after-evict"):
                san.chunk_remapped(chunk, chunk.key)
        assert len(san.of_kind(ViolationKind.USE_AFTER_EVICT)) == 2
        assert chunk.peek_buffers() is None

    def test_fs_page_holding_its_payload_is_aliasing(self):
        with sanitize():
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = self.compact(11, payload)
            store.insert(chunk)
            with pytest.raises(SanitizerError, match="aliases"):
                BufferCache(1 << 20).insert(11, payload)
        assert chunk.peek_buffers() is None

    def test_fs_page_viewing_its_copied_memory_is_aliasing(self):
        # The new case: no buffer views exist to compare against, so the
        # mem identity must be read off the merged descriptor itself.
        with sanitize():
            store = make_store()
            copied = VirtualPayload(7, 0, 4096).physical_copy()
            chunk = self.compact(11, copied)
            store.insert(chunk)
            with pytest.raises(SanitizerError,
                               match="view of buffer memory"):
                BufferCache(1 << 20).insert(11, copied.slice(0, 1024))
        assert chunk.peek_buffers() is None

    def test_still_owned_after_an_observer_built_the_list(self):
        with sanitize() as san:
            store = make_store()
            payload = VirtualPayload(7, 0, 4096)
            chunk = self.compact(11, payload)
            store.insert(chunk)
            assert len(chunk.buffers) == 3  # e.g. a partial substitution
            with pytest.raises(SanitizerError, match="aliases"):
                BufferCache(1 << 20).insert(11, payload)
        assert san.of_kind(ViolationKind.ALIASING)

    def test_evicted_payload_may_be_cached(self):
        with sanitize() as san:
            store = make_store()
            copied = VirtualPayload(7, 0, 4096).physical_copy()
            chunk = self.compact(11, copied)
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
            chunk = make_chunk(2)
            store.insert(chunk)
            assert san._chunks[id(chunk)].state is ChunkState.CACHED
            store.drop(chunk)
            assert san._chunks[id(chunk)].state is ChunkState.EVICTED

    def test_report_and_raise(self):
        san = BufferSanitizer()
        chunk = make_chunk(4)
        san.chunk_cached(chunk)
        san.chunk_evicted(chunk)
        with pytest.raises(SanitizerError) as raised:
            san.chunk_used(chunk, "substitute")
        assert str(raised.value) == san.violations[0].format() == \
            "san.use-after-evict [4]: substitute touched a " \
            "reclaimed chunk"


class TestActivation:
    def test_enable_disable_roundtrip(self):
        previous = disable()
        try:
            assert active() is None
            san = enable()
            assert active() is san
            assert disable() is san
            assert active() is None
        finally:
            if previous is not None:
                enable()

    def test_hooks_are_noops_without_a_sanitizer(self):
        previous = disable()
        try:
            store = make_store()
            chunk = make_chunk(1, dirty=True)
            store.insert(chunk)
            store.drop(chunk)
            chunk.pin()  # would be use-after-evict under a sanitizer
        finally:
            if previous is not None:
                enable()

    def test_sanitize_restores_the_previous_sanitizer(self):
        outer = active()
        with sanitize() as inner:
            assert active() is inner
        assert active() is outer


def pin_an_evicted_chunk():
    """A cell that, unsanitized, returns as if nothing happened."""
    store = make_store()
    chunk = make_chunk(3)
    store.insert(chunk)
    store.drop(chunk)
    chunk.pin()


PLANTED_CELL = RunSpec(pin_an_evicted_chunk, label="planted/pin-evicted",
                       capture_reports=False)


@pytest.mark.cells(PLANTED_CELL)
def test_a_violation_in_a_pooled_cell_fails_its_reader(cell_result):
    """The session pool runs each cell under a sanitizer of its own."""
    with pytest.raises(SanitizerError, match=r"use-after-evict "
                       r"\[3\]: pin touched") as raised:
        cell_result(PLANTED_CELL.label)
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
