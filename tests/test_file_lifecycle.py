"""File lifecycle: truncate, remove, stale handles, cache invalidation."""

import pytest

from repro.fs import BLOCK_SIZE
from repro.net.buffer import VirtualPayload
from repro.nfs import NfsProc, read_reply_data
from repro.nfs.protocol import NFSERR_INVAL, NFSERR_NOENT, NFSERR_STALE
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start


def build(mode=ServerMode.ORIGINAL, **overrides):
    testbed = TestbedSpec.nfs(mode=mode, flush_interval_s=None,
                              **overrides).build()
    testbed.image.create_file("life.bin", 16 * BLOCK_SIZE)
    testbed.setup()
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


class TestImageLifecycle:
    def test_truncate_shrinks_size_keeps_extent(self):
        testbed = build()
        inode = testbed.image.lookup("life.bin")
        old_start = inode.start_lbn
        testbed.image.truncate(inode, 4 * BLOCK_SIZE)
        assert inode.size == 4 * BLOCK_SIZE
        assert inode.start_lbn == old_start

    def test_truncate_grow_rejected(self):
        testbed = build()
        inode = testbed.image.lookup("life.bin")
        with pytest.raises(ValueError):
            testbed.image.truncate(inode, inode.size + 1)

    def test_remove_bumps_generation(self):
        testbed = build()
        inode = testbed.image.lookup("life.bin")
        old_gen = inode.generation
        testbed.image.remove_file("life.bin")
        assert inode.generation == old_gen + 1
        with pytest.raises(FileNotFoundError):
            testbed.image.lookup("life.bin")

    def test_is_stale(self):
        testbed = build()
        inode = testbed.image.lookup("life.bin")
        assert not testbed.image.is_stale(inode.ino, inode.generation)
        gen = inode.generation
        testbed.image.remove_file("life.bin")
        assert testbed.image.is_stale(inode.ino, gen)
        assert testbed.image.is_stale(9999, 1)

    def test_name_reusable_after_remove(self):
        testbed = build()
        old = testbed.image.lookup("life.bin")
        testbed.image.remove_file("life.bin")
        new = testbed.image.create_file("life.bin", BLOCK_SIZE)
        assert new.ino != old.ino


@pytest.mark.parametrize("mode", [ServerMode.ORIGINAL, ServerMode.NCACHE],
                         ids=lambda m: m.value)
class TestTruncateOverNfs:
    def test_truncate_updates_size(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")

        def scenario():
            reply = yield from testbed.clients[0].setattr_size(
                fh, 4 * BLOCK_SIZE)
            attrs = yield from testbed.clients[0].getattr(fh)
            return reply, attrs

        reply, attrs = run_scenario(testbed, scenario())
        assert reply.ok
        assert attrs.size == 4 * BLOCK_SIZE

    def test_read_past_truncation_fails(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 8 * BLOCK_SIZE)
            yield from testbed.clients[0].setattr_size(fh, 4 * BLOCK_SIZE)
            return (yield from testbed.clients[0].read(
                fh, 4 * BLOCK_SIZE, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert dgram.message.status == NFSERR_INVAL

    def test_truncate_invalidates_cached_tail(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")
        inode = testbed.image.lookup("life.bin")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 16 * BLOCK_SIZE)
            yield from testbed.clients[0].setattr_size(fh, 4 * BLOCK_SIZE)

        run_scenario(testbed, scenario())
        for b in range(4):
            assert testbed.cache.peek(inode.block_lbn(b)) is not None
        for b in range(4, 16):
            assert testbed.cache.peek(inode.block_lbn(b)) is None

    def test_dirty_tail_discarded_not_flushed(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")
        inode = testbed.image.lookup("life.bin")
        data = VirtualPayload(55, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 8 * BLOCK_SIZE, data)
            yield from testbed.clients[0].setattr_size(fh, 4 * BLOCK_SIZE)
            yield from testbed.vfs.flush_oldest(64)

        run_scenario(testbed, scenario())
        # The truncated block's write never reached the disk.
        assert testbed.disk_store.read_block(
            inode.block_lbn(8)).materialize() != data.materialize()

    def test_bad_truncate_size_rejected(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")

        def scenario():
            return (yield from testbed.clients[0].setattr_size(
                fh, 64 * BLOCK_SIZE))

        reply = run_scenario(testbed, scenario())
        assert reply.status == NFSERR_INVAL

    def test_setattr_without_size_is_attr_touch(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")

        def scenario():
            dgram = yield from testbed.clients[0].call(NfsProc.SETATTR,
                                                       fh=fh)
            return dgram.message

        reply = run_scenario(testbed, scenario())
        assert reply.ok and reply.size == 16 * BLOCK_SIZE


@pytest.mark.parametrize("mode", [ServerMode.ORIGINAL, ServerMode.NCACHE],
                         ids=lambda m: m.value)
class TestRemoveOverNfs:
    def test_remove_then_lookup_fails(self, mode):
        testbed = build(mode)

        def scenario():
            reply = yield from testbed.clients[0].remove("life.bin")
            lookup = yield from testbed.clients[0].lookup("life.bin")
            return reply, lookup

        reply, lookup = run_scenario(testbed, scenario())
        assert reply.ok
        assert lookup.status == NFSERR_NOENT

    def test_stale_handle_after_remove(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")

        def scenario():
            yield from testbed.clients[0].remove("life.bin")
            read = yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)
            attrs_dgram = yield from testbed.clients[0].call(
                NfsProc.GETATTR, fh=fh)
            return read.message, attrs_dgram.message

        read, attrs = run_scenario(testbed, scenario())
        assert read.status == NFSERR_STALE
        assert attrs.status == NFSERR_STALE

    def test_remove_missing_file(self, mode):
        testbed = build(mode)

        def scenario():
            return (yield from testbed.clients[0].remove("ghost"))

        assert run_scenario(testbed, scenario()).status == NFSERR_NOENT

    def test_remove_invalidates_cache(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")
        inode = testbed.image.lookup("life.bin")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 8 * BLOCK_SIZE)
            yield from testbed.clients[0].remove("life.bin")

        run_scenario(testbed, scenario())
        for b in range(8):
            assert testbed.cache.peek(inode.block_lbn(b)) is None

    def test_recreate_same_name_serves_new_content(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("life.bin")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)
            yield from testbed.clients[0].remove("life.bin")
            dgram = yield from testbed.clients[0].call(
                NfsProc.CREATE, name="life.bin", count=2 * BLOCK_SIZE)
            new_fh = dgram.message.fh
            read = yield from testbed.clients[0].read(new_fh, 0, BLOCK_SIZE)
            return new_fh, read

        new_fh, read = run_scenario(testbed, scenario())
        new_inode = testbed.image.lookup("life.bin")
        assert new_fh.ino == new_inode.ino
        assert read_reply_data(read).materialize() == \
            testbed.image.file_payload(new_inode, 0, BLOCK_SIZE).materialize()

    def test_old_handle_stale_new_handle_live(self, mode):
        testbed = build(mode)
        old_fh = testbed.file_handle("life.bin")

        def scenario():
            yield from testbed.clients[0].remove("life.bin")
            dgram = yield from testbed.clients[0].call(
                NfsProc.CREATE, name="life.bin", count=BLOCK_SIZE)
            new_fh = dgram.message.fh
            stale = yield from testbed.clients[0].read(old_fh, 0, BLOCK_SIZE)
            live = yield from testbed.clients[0].read(new_fh, 0, BLOCK_SIZE)
            return stale.message, live.message

        stale, live = run_scenario(testbed, scenario())
        assert stale.status == NFSERR_STALE
        assert live.ok
