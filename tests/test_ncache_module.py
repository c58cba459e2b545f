"""The NCache module itself: caching, substitution, remapping, L2 serve."""

import pytest

from repro.check.sanitizer import ViolationKind, sanitize
from repro.core import FhoKey, KeyedPayload, LbnKey
from repro.core.ncache import coalesce_keyed
from repro.fs import BLOCK_SIZE
from repro.net.buffer import (BytesPayload, VirtualPayload, concat,
                              flatten_payload)
from repro.nfs import read_reply_data
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start


def ncache_testbed(**overrides):
    testbed = TestbedSpec.nfs(ServerMode.NCACHE, ncache_strict=True,
                              flush_interval_s=None, **overrides).build()
    testbed.image.create_file("file", 32 << 20)
    testbed.setup()
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


class TestCoalesce:
    def test_merges_contiguous_same_key(self):
        key = LbnKey(0, 1)
        leaves = [KeyedPayload(1000, lbn_key=key, base_offset=0),
                  KeyedPayload(1000, lbn_key=key, base_offset=1000)]
        out = coalesce_keyed(leaves)
        assert len(out) == 1
        assert out[0].length == 2000
        assert out[0].base_offset == 0

    def test_does_not_merge_across_keys(self):
        leaves = [KeyedPayload(1000, lbn_key=LbnKey(0, 1)),
                  KeyedPayload(1000, lbn_key=LbnKey(0, 2))]
        assert len(coalesce_keyed(leaves)) == 2

    def test_does_not_merge_non_contiguous(self):
        key = LbnKey(0, 1)
        leaves = [KeyedPayload(100, lbn_key=key, base_offset=0),
                  KeyedPayload(100, lbn_key=key, base_offset=500)]
        assert len(coalesce_keyed(leaves)) == 2

    def test_plain_leaves_untouched(self):
        leaves = [BytesPayload(b"h"),
                  KeyedPayload(100, lbn_key=LbnKey(0, 1)),
                  BytesPayload(b"t")]
        assert len(coalesce_keyed(leaves)) == 3

    def test_flatten_skips_empty(self):
        payload = concat([BytesPayload(b""), BytesPayload(b"x")])
        assert len(flatten_payload(payload)) == 1


class TestRxCaching:
    def test_read_miss_populates_lbn_cache(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 32768)

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_lbn == 8
        for b in range(8):
            chunk = store.peek_lbn(LbnKey(0, inode.block_lbn(b)))
            assert chunk is not None
            assert chunk.payload().materialize() == \
                testbed.image.file_payload(
                    inode, b * BLOCK_SIZE, BLOCK_SIZE).materialize()

    def test_write_populates_fho_cache_dirty(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        data = VirtualPayload(31, 0, 8192)

        def scenario():
            yield from testbed.clients[0].write(fh, 16384, data)

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_fho == 2
        chunk = store.peek_fho(FhoKey(fh.ino, fh.generation, 16384))
        assert chunk.dirty
        assert chunk.lbn_hint is not None
        assert chunk.payload().materialize() == \
            data.slice(0, BLOCK_SIZE).materialize()

    def test_overwrite_replaces_fho_chunk(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")

        def scenario():
            yield from testbed.clients[0].write(
                fh, 0, VirtualPayload(1, 0, BLOCK_SIZE))
            yield from testbed.clients[0].write(
                fh, 0, VirtualPayload(2, 0, BLOCK_SIZE))

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_fho == 1
        assert store.counters["ncache.overwrite"].value == 1
        chunk = store.peek_fho(FhoKey(fh.ino, fh.generation, 0))
        assert chunk.payload().materialize() == \
            VirtualPayload(2, 0, BLOCK_SIZE).materialize()

    def test_unaligned_write_passes_through_uncached(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        # 2048-byte write: not block aligned -> not cached, but the
        # physical fallback path must still store correct bytes.
        data = VirtualPayload(3, 0, 2048)

        def scenario():
            dgram = yield from testbed.clients[0].write(fh, 0, data)
            return dgram.message

        # The simulated VFS requires block-aligned writes, so the server
        # surfaces an error for the unaligned payload; the module itself
        # must simply not cache it.
        with pytest.raises(ValueError):
            run_scenario(testbed, scenario())
        assert testbed.server_host.counters[
            "ncache.unaligned_write_passthrough"].value == 1


class TestSubstitution:
    def test_read_reply_carries_real_bytes(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 32768)  # miss
            return (yield from testbed.clients[0].read(fh, 0, 32768))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, 0, 32768).materialize()
        assert testbed.server_host.counters[
            "ncache.substituted_replies"].value >= 2

    def test_substituted_frames_reuse_cached_buffers(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 4096)
            return (yield from testbed.clients[0].read(fh, 0, 4096))

        dgram = run_scenario(testbed, scenario())
        # 4 KB block cached as three TCP-mss buffers; reply = header
        # merged into the first + the rest: 3 frames.
        assert dgram.n_frames == 3

    def test_substitution_miss_nonstrict_serves_junk(self):
        testbed = TestbedSpec.nfs(ServerMode.NCACHE, ncache_strict=False,
                                  flush_interval_s=None).build()
        testbed.image.create_file("file", 1 << 20)
        testbed.setup()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 4096)
            # Sabotage: drop the chunk but leave the FS-cache page keyed.
            store = testbed.ncache.store
            chunk = store.peek_lbn(LbnKey(0, inode.block_lbn(0)))
            store.drop(chunk)
            testbed.cache.insert(
                inode.block_lbn(0),
                KeyedPayload(BLOCK_SIZE,
                             lbn_key=LbnKey(0, inode.block_lbn(0))))
            return (yield from testbed.clients[0].read(fh, 0, 4096))

        # The non-strict contract, sanitizer included: the dangling key
        # is recorded (soft) and junk is served, even under REPRO_SANITIZE.
        with sanitize(strict=False) as san:
            dgram = run_scenario(testbed, scenario())
        assert [v.kind for v in san.violations] == \
            [ViolationKind.USE_AFTER_EVICT]
        assert testbed.server_host.counters[
            "ncache.substitute_miss"].value >= 1
        assert read_reply_data(dgram).length == 4096


class TestRemapping:
    def test_flush_remaps_and_substitutes(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        data = VirtualPayload(41, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.vfs.flush_lbn(inode.block_lbn(0))

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_fho == 0
        chunk = store.peek_lbn(LbnKey(0, inode.block_lbn(0)))
        assert chunk is not None and not chunk.dirty
        assert testbed.disk_store.read_block(
            inode.block_lbn(0)).materialize() == data.materialize()

    def test_read_after_remap_uses_lbn_key(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        data = VirtualPayload(42, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.vfs.flush_lbn(inode.block_lbn(0))
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()

    def test_remap_overwrites_stale_read_data(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        data = VirtualPayload(43, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)  # stale LBN
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.vfs.flush_lbn(inode.block_lbn(0))
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()
        assert testbed.server_host.counters[
            "ncache.remap_overwrite"].value == 1


class TestSecondLevelCache:
    def test_fs_cache_miss_served_from_ncache(self):
        # FS cache of 16 blocks; NCache large.
        testbed = ncache_testbed(ncache_fs_cache_bytes=16 * BLOCK_SIZE)
        fh = testbed.file_handle("file")

        def scenario():
            # Read 32 distinct blocks: FS cache can hold only 16.
            for b in range(32):
                yield from testbed.clients[0].read(fh, b * BLOCK_SIZE,
                                                   BLOCK_SIZE)
            commands = testbed.target.commands_served
            # Re-read the first blocks: FS cache misses, NCache hits.
            for b in range(8):
                yield from testbed.clients[0].read(fh, b * BLOCK_SIZE,
                                                   BLOCK_SIZE)
            return commands, testbed.target.commands_served

        before, after = run_scenario(testbed, scenario())
        assert after == before  # no extra storage traffic
        assert testbed.server_host.counters["ncache.l2_hit"].value >= 8

    def test_l2_served_bytes_correct(self):
        testbed = ncache_testbed(ncache_fs_cache_bytes=16 * BLOCK_SIZE)
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            for b in range(32):
                yield from testbed.clients[0].read(fh, b * BLOCK_SIZE,
                                                   BLOCK_SIZE)
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, 0, BLOCK_SIZE).materialize()


class TestAnnotator:
    def test_annotator_stamps_lbn(self):
        testbed = ncache_testbed()
        module = testbed.ncache
        keyed = KeyedPayload(BLOCK_SIZE, fho_key=FhoKey(1, 1, 0))
        stamped = module.lbn_annotator(keyed, 4242)
        assert stamped.lbn_key == LbnKey(0, 4242)
        assert stamped.fho_key == FhoKey(1, 1, 0)

    def test_annotator_ignores_plain_payloads(self):
        testbed = ncache_testbed()
        plain = BytesPayload(b"x" * BLOCK_SIZE)
        assert testbed.ncache.lbn_annotator(plain, 1) is plain


class TestReclaimCoherence:
    def test_reclaimed_chunk_invalidates_dangling_fs_page(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        lbn = inode.block_lbn(0)
        assert testbed.cache.peek(lbn) is not None
        chunk = store.peek_lbn(LbnKey(0, lbn))
        store.drop(chunk)  # simulate pressure-reclaim of this chunk
        assert testbed.cache.peek(lbn) is None
        assert testbed.server_host.counters[
            "ncache.fs_page_invalidated"].value == 1
