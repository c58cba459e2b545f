"""iSCSI initiator/target protocol flows."""

import pytest

from repro.copymodel import CopyDiscipline
from repro.fs import BLOCK_SIZE
from repro.iscsi import ScsiCommand
from repro.net.buffer import VirtualPayload
from repro.sim import SimulationError
from conftest import MiniStack, drive


def connected(sim, discipline=CopyDiscipline.PHYSICAL):
    stack = MiniStack(sim, discipline)
    drive(sim, stack.initiator.connect(), "connect")
    return stack


class TestPdu:
    def test_command_validation(self):
        with pytest.raises(ValueError):
            ScsiCommand("erase", 1, 0, 0, 1)
        with pytest.raises(ValueError):
            ScsiCommand("read", 1, 0, 0, 0)

    def test_read_write_flags(self):
        assert ScsiCommand("read", 1, 0, 0, 1).is_read
        assert ScsiCommand("write", 1, 0, 0, 1).is_write


class TestReadPath:
    def test_read_returns_disk_bytes(self, sim):
        stack = connected(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            return (yield from stack.initiator.read(inode.start_lbn, 4))

        payload = drive(sim, job())
        assert payload.materialize() == \
            stack.image.file_payload(inode, 0, 4 * BLOCK_SIZE).materialize()

    def test_concurrent_reads_demux_by_tag(self, sim):
        stack = connected(sim)
        a = stack.image.create_file("a", 1 << 20)
        b = stack.image.create_file("b", 1 << 20)
        from repro.sim import AllOf, start

        def reader(inode):
            return (yield from stack.initiator.read(inode.start_lbn, 2))

        def job():
            procs = [start(sim, reader(a)), start(sim, reader(b))]
            results = yield AllOf(sim, procs)
            return results

        results = drive(sim, job())
        assert results[0].materialize() == \
            stack.image.file_payload(a, 0, 2 * BLOCK_SIZE).materialize()
        assert results[1].materialize() == \
            stack.image.file_payload(b, 0, 2 * BLOCK_SIZE).materialize()

    def test_use_before_connect_rejected(self, sim):
        stack = MiniStack(sim, CopyDiscipline.PHYSICAL)

        def job():
            yield from stack.initiator.read(0, 1)

        with pytest.raises(SimulationError):
            drive(sim, job())


class TestWritePath:
    def test_write_lands_on_disk(self, sim):
        stack = connected(sim)
        inode = stack.image.create_file("f", 1 << 20)
        data = VirtualPayload(11, 0, 2 * BLOCK_SIZE)

        def job():
            yield from stack.initiator.write(inode.start_lbn + 1, data)

        drive(sim, job())
        assert stack.store.read_block(inode.start_lbn + 1).materialize() == \
            data.slice(0, BLOCK_SIZE).materialize()
        assert stack.store.read_block(inode.start_lbn + 2).materialize() == \
            data.slice(BLOCK_SIZE, BLOCK_SIZE).materialize()

    def test_unaligned_write_rejected(self, sim):
        stack = connected(sim)

        def job():
            yield from stack.initiator.write(0, VirtualPayload(1, 0, 100))

        with pytest.raises(SimulationError):
            drive(sim, job())

    def test_empty_write_rejected(self, sim):
        stack = connected(sim)

        def job():
            yield from stack.initiator.write(0, VirtualPayload(1, 0, 0))

        with pytest.raises(SimulationError):
            drive(sim, job())

    def test_write_then_read_roundtrip(self, sim):
        stack = connected(sim)
        inode = stack.image.create_file("f", 1 << 20)
        data = VirtualPayload(12, 0, BLOCK_SIZE)

        def job():
            yield from stack.initiator.write(inode.start_lbn, data)
            return (yield from stack.initiator.read(inode.start_lbn, 1))

        assert drive(sim, job()).materialize() == data.materialize()


class TestTargetAccounting:
    def test_target_copies_charged(self, sim):
        stack = connected(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.initiator.read(inode.start_lbn, 8)

        drive(sim, job())
        snap = stack.storage.counters.snapshot()
        assert snap["copies.physical.target_read_buf"] == 1
        assert snap["copies.physical.sock_tx"] == 1

    def test_disk_busy_during_read(self, sim):
        stack = connected(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            yield from stack.initiator.read(inode.start_lbn, 8)

        drive(sim, job())
        assert sum(d.reads for d in stack.raid.disks) >= 1

    def test_metadata_flag_propagates(self, sim):
        stack = connected(sim)

        def job():
            # LBN 0 is the superblock; read it as metadata.
            return (yield from stack.initiator.read(0, 1, is_metadata=True))

        payload = drive(sim, job())
        assert payload.length == BLOCK_SIZE


class TestInterceptor:
    def test_interceptor_short_circuits(self, sim):
        stack = connected(sim)
        inode = stack.image.create_file("f", 1 << 20)
        canned = VirtualPayload(99, 0, BLOCK_SIZE)

        def interceptor(lbn, nblocks):
            return canned
            yield

        stack.initiator.read_interceptor = interceptor

        def job():
            return (yield from stack.initiator.read(inode.start_lbn, 1))

        assert drive(sim, job()) is canned
        assert stack.target.commands_served == 0

    def test_interceptor_none_falls_through(self, sim):
        stack = connected(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def interceptor(lbn, nblocks):
            return None
            yield

        stack.initiator.read_interceptor = interceptor

        def job():
            return (yield from stack.initiator.read(inode.start_lbn, 1))

        payload = drive(sim, job())
        assert payload.materialize() == \
            stack.image.file_payload(inode, 0, BLOCK_SIZE).materialize()
        assert stack.target.commands_served == 1

    def test_metadata_bypasses_interceptor(self, sim):
        stack = connected(sim)
        calls = []

        def interceptor(lbn, nblocks):
            calls.append(lbn)
            return None
            yield

        stack.initiator.read_interceptor = interceptor

        def job():
            yield from stack.initiator.read(0, 1, is_metadata=True)

        drive(sim, job())
        assert calls == []


class TestNetworkReadyDisk:
    """§6 future work: pre-framed on-disk data skips the target's copies."""

    def connected_ready(self, sim):
        from repro.copymodel import CopyDiscipline

        stack = MiniStack(sim, CopyDiscipline.PHYSICAL)
        stack.target.network_ready_disk = True
        drive(sim, stack.initiator.connect())
        return stack

    def test_read_path_copy_free_on_target(self, sim):
        stack = self.connected_ready(sim)
        inode = stack.image.create_file("f", 1 << 20)

        def job():
            return (yield from stack.initiator.read(inode.start_lbn, 8))

        payload = drive(sim, job())
        assert payload.materialize() == \
            stack.image.file_payload(inode, 0, 8 * 4096).materialize()
        snap = stack.storage.counters.snapshot()
        assert snap.get("copies.physical.target_read_buf", 0) == 0
        assert snap.get("copies.physical.sock_tx", 0) == 0
        assert snap["cpu.iscsi.reframe"] > 0

    def test_metadata_reads_still_copied(self, sim):
        stack = self.connected_ready(sim)

        def job():
            yield from stack.initiator.read(0, 1, is_metadata=True)

        drive(sim, job())
        snap = stack.storage.counters.snapshot()
        assert snap["copies.physical.target_read_buf"] == 1

    def test_writes_unaffected(self, sim):
        from repro.net.buffer import VirtualPayload as VP

        stack = self.connected_ready(sim)
        inode = stack.image.create_file("f", 1 << 20)
        data = VP(77, 0, 4096)

        def job():
            yield from stack.initiator.write(inode.start_lbn, data)
            return (yield from stack.initiator.read(inode.start_lbn, 1))

        assert drive(sim, job()).materialize() == data.materialize()
