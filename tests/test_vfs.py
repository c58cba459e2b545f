"""VFS over iSCSI: reads, writes, sendfile, metadata, flush clustering."""

import pytest

from repro.copymodel import CopyDiscipline
from repro.fs import BLOCK_SIZE
from repro.net.buffer import VirtualPayload
from conftest import CopyWindow, MiniStack, drive


def make_stack(sim, discipline=CopyDiscipline.PHYSICAL, cache_bytes=8 << 20):
    stack = MiniStack(sim, discipline, cache_bytes=cache_bytes)
    drive(sim, stack.initiator.connect(), "connect")
    return stack


class TestRead:
    def test_miss_then_hit_bytes_identical(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)
        expected = stack.image.file_payload(inode, 4096, 8192).materialize()

        def job():
            first = yield from stack.vfs.read(inode, 4096, 8192)
            second = yield from stack.vfs.read(inode, 4096, 8192)
            return first, second

        first, second = drive(sim, job())
        assert first.materialize() == expected
        assert second.materialize() == expected

    def test_miss_goes_to_storage_hit_does_not(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.vfs.read(inode, 0, 4096)
            served = stack.target.commands_served
            yield from stack.vfs.read(inode, 0, 4096)
            return served, stack.target.commands_served

        before, after = drive(sim, job())
        assert before == after == 1

    def test_unaligned_range(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)
        expected = stack.image.file_payload(inode, 5000, 3000).materialize()

        def job():
            return (yield from stack.vfs.read(inode, 5000, 3000))

        assert drive(sim, job()).materialize() == expected

    def test_read_beyond_eof_rejected(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 10_000)

        def job():
            yield from stack.vfs.read(inode, 8_000, 4_096)

        with pytest.raises(ValueError):
            drive(sim, job())

    def test_zero_length_rejected(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 10_000)

        def job():
            yield from stack.vfs.read(inode, 0, 0)

        with pytest.raises(ValueError):
            drive(sim, job())

    def test_partial_hit_fetches_only_missing_run(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.vfs.read(inode, 0, 2 * BLOCK_SIZE)   # blocks 0-1
            yield from stack.vfs.read(inode, 0, 4 * BLOCK_SIZE)   # miss 2-3
            return stack.target.commands_served

        assert drive(sim, job()) == 2

    def test_copy_trace_miss_vs_hit(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            with CopyWindow(sim) as miss:
                yield from stack.vfs.read(inode, 0, 8192)
            with CopyWindow(sim) as hit:
                yield from stack.vfs.read(inode, 0, 8192)
            return miss, hit

        miss, hit = drive(sim, job())
        assert miss.physical_copies(where="server") == 2  # fill + fs_read
        assert hit.physical_copies(where="server") == 1   # fs_read only


class TestReadahead:
    def test_readahead_prefetches(self, sim):
        stack = make_stack(sim)
        stack.vfs.readahead_blocks = 4
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.vfs.read(inode, 0, BLOCK_SIZE)
            commands = stack.target.commands_served
            # The next 4 blocks should already be cached.
            yield from stack.vfs.read(inode, BLOCK_SIZE, 4 * BLOCK_SIZE)
            return commands, stack.target.commands_served

        before, after = drive(sim, job())
        assert before == after == 1

    def test_readahead_clamped_at_eof(self, sim):
        stack = make_stack(sim)
        stack.vfs.readahead_blocks = 100
        inode = stack.image.create_file("f", 3 * BLOCK_SIZE)

        def job():
            yield from stack.vfs.read(inode, 0, BLOCK_SIZE)

        drive(sim, job())  # must not raise


class TestWriteAndFlush:
    def test_write_then_read_back(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)
        data = VirtualPayload(7, 0, 2 * BLOCK_SIZE)

        def job():
            yield from stack.vfs.write(inode, BLOCK_SIZE, data)
            return (yield from stack.vfs.read(inode, BLOCK_SIZE,
                                              2 * BLOCK_SIZE))

        assert drive(sim, job()).materialize() == data.materialize()

    def test_unaligned_write_rejected(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.vfs.write(inode, 100, VirtualPayload(1, 0, 512))

        with pytest.raises(ValueError):
            drive(sim, job())

    def test_write_beyond_extent_rejected(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", BLOCK_SIZE)

        def job():
            yield from stack.vfs.write(inode, 0,
                                       VirtualPayload(1, 0, 2 * BLOCK_SIZE))

        with pytest.raises(ValueError):
            drive(sim, job())

    def test_flush_writes_to_disk_store(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)
        data = VirtualPayload(9, 0, BLOCK_SIZE)

        def job():
            yield from stack.vfs.write(inode, 0, data)
            flushed = yield from stack.vfs.flush_lbn(inode.block_lbn(0))
            return flushed

        assert drive(sim, job()) is True
        assert stack.store.read_block(inode.block_lbn(0)).materialize() == \
            data.materialize()

    def test_flush_clean_block_is_noop(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.vfs.read(inode, 0, BLOCK_SIZE)
            return (yield from stack.vfs.flush_lbn(inode.block_lbn(0)))

        assert drive(sim, job()) is False

    def test_flush_oldest_clusters_contiguous_runs(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            # Two contiguous runs: blocks 0-3 and 10-11.
            yield from stack.vfs.write(inode, 0,
                                       VirtualPayload(1, 0, 4 * BLOCK_SIZE))
            yield from stack.vfs.write(inode, 10 * BLOCK_SIZE,
                                       VirtualPayload(2, 0, 2 * BLOCK_SIZE))
            commands_before = stack.target.commands_served
            flushed = yield from stack.vfs.flush_oldest(64)
            return flushed, stack.target.commands_served - commands_before

        flushed, commands = drive(sim, job())
        assert flushed == 6
        assert commands == 2  # one iSCSI write per contiguous run

    def test_eviction_of_dirty_block_writes_back(self, sim):
        stack = make_stack(sim, cache_bytes=4 * BLOCK_SIZE)
        inode = stack.image.create_file("f", 1 << 20)
        data = VirtualPayload(3, 0, BLOCK_SIZE)

        def job():
            yield from stack.vfs.write(inode, 0, data)
            # Fill the tiny cache to force the dirty block out.
            yield from stack.vfs.read(inode, 8 * BLOCK_SIZE, 4 * BLOCK_SIZE)

        drive(sim, job())
        assert stack.store.read_block(inode.block_lbn(0)).materialize() == \
            data.materialize()

    def test_dirty_data_survives_eviction_and_reread(self, sim):
        stack = make_stack(sim, cache_bytes=4 * BLOCK_SIZE)
        inode = stack.image.create_file("f", 1 << 20)
        data = VirtualPayload(4, 0, BLOCK_SIZE)

        def job():
            yield from stack.vfs.write(inode, 0, data)
            yield from stack.vfs.read(inode, 8 * BLOCK_SIZE, 4 * BLOCK_SIZE)
            return (yield from stack.vfs.read(inode, 0, BLOCK_SIZE))

        assert drive(sim, job()).materialize() == data.materialize()


class TestMetadata:
    def test_inode_metadata_cached(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.vfs.read_inode_metadata(inode.ino)
            served = stack.target.commands_served
            yield from stack.vfs.read_inode_metadata(inode.ino)
            return served, stack.target.commands_served

        before, after = drive(sim, job())
        assert before == after == 1

    def test_metadata_trace_marks_metadata(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            with CopyWindow(sim) as trace:
                yield from stack.vfs.read_inode_metadata(inode.ino)
            return trace

        trace = drive(sim, job())
        assert trace.physical_copies(regular_only=True) == 0
        assert trace.physical_copies(regular_only=False) >= 1

    def test_dir_metadata(self, sim):
        stack = make_stack(sim)
        stack.image.create_file("f", 100)

        def job():
            yield from stack.vfs.read_dir_metadata("f")

        drive(sim, job())
        assert stack.cache.counters["cache.bcache.miss"].value >= 1


class TestSendfile:
    def test_sendfile_payload_no_fs_read_copy(self, sim):
        stack = make_stack(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            with CopyWindow(sim) as warm:
                yield from stack.vfs.sendfile_payload(inode, 0, 8192)
            with CopyWindow(sim) as hot:
                payload = yield from stack.vfs.sendfile_payload(inode, 0,
                                                                8192)
            return warm, hot, payload

        warm, hot, payload = drive(sim, job())
        assert warm.physical_copies(where="server") == 1  # fill only
        assert hot.physical_copies(where="server") == 0   # nothing at all
        assert payload.materialize() == \
            stack.image.file_payload(inode, 0, 8192).materialize()
