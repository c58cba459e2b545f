"""Failure injection: errors must surface loudly and precisely."""

import pytest

from repro.core import LbnKey
from repro.fs import BLOCK_SIZE
from repro.iscsi import DataIn, ScsiResponse
from repro.net.buffer import VirtualPayload
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim import SimulationError
from repro.sim.process import start
from conftest import MiniStack, drive


def build(mode=ServerMode.ORIGINAL, **overrides):
    testbed = TestbedSpec.nfs(mode, flush_interval_s=None,
                              **overrides).build()
    testbed.image.create_file("f", 4 << 20)
    testbed.setup()
    return testbed


class TestIscsiFailures:
    def test_error_status_read_raises(self, sim):
        stack = MiniStack(sim, __import__(
            "repro.copymodel", fromlist=["CopyDiscipline"]
        ).CopyDiscipline.PHYSICAL)
        drive(sim, stack.initiator.connect())

        # Sabotage the target: respond with a failing status.
        original = stack.target._serve_read

        def failing_read(conn, cmd):
            response = DataIn(task_tag=cmd.task_tag, lun=cmd.lun,
                              lba=cmd.lba, nblocks=cmd.nblocks, status=1)
            from repro.net.buffer import JunkPayload

            yield from conn.send(response, data=JunkPayload(
                cmd.nblocks * BLOCK_SIZE), header=JunkPayload(48))

        stack.target._serve_read = failing_read

        def job():
            yield from stack.initiator.read(200, 1)

        with pytest.raises(SimulationError, match="failed"):
            drive(sim, job())

    def test_response_for_unknown_tag_raises(self, sim):
        stack = MiniStack(sim, __import__(
            "repro.copymodel", fromlist=["CopyDiscipline"]
        ).CopyDiscipline.PHYSICAL)
        drive(sim, stack.initiator.connect())

        def rogue():
            from repro.net.buffer import JunkPayload

            # Target-side connection sends a response nobody asked for.
            conn = stack.target_conn
            yield from conn.send(ScsiResponse(task_tag=777),
                                 data=JunkPayload(0),
                                 header=JunkPayload(48))

        # Grab the target's connection object.
        stack.target_conn = \
            stack.storage.stack._connections[next(iter(
                stack.storage.stack._connections))]
        start(sim, rogue())
        with pytest.raises(SimulationError, match="unknown tag"):
            sim.run()


class TestStrictSubstitution:
    def test_strict_mode_raises_on_dangling_key(self):
        testbed = build(mode=ServerMode.NCACHE)
        fh = testbed.file_handle("f")
        inode = testbed.image.lookup("f")
        from repro.core.keys import KeyedPayload

        def scenario():
            yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)
            store = testbed.ncache.store
            chunk = store.peek_lbn(LbnKey(0, inode.block_lbn(0)))
            # Remove the chunk but force a dangling key-only page back in.
            store.drop(chunk)
            testbed.cache.insert(
                inode.block_lbn(0),
                KeyedPayload(BLOCK_SIZE,
                             lbn_key=LbnKey(0, inode.block_lbn(0))))
            yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)

        proc = start(testbed.sim, scenario())
        with pytest.raises(SimulationError, match="dangling key"):
            run_until_complete(testbed.sim, proc)


class TestVfsMisuse:
    def test_cache_too_small_for_request_raises(self, sim):
        from repro.copymodel import CopyDiscipline

        stack = MiniStack(sim, CopyDiscipline.PHYSICAL,
                          cache_bytes=2 * BLOCK_SIZE)
        drive(sim, stack.initiator.connect())
        inode = stack.image.create_file("big", 1 << 20)

        def job():
            # An 8-block read cannot fit in a 2-block cache.
            yield from stack.vfs.read(inode, 0, 8 * BLOCK_SIZE)

        with pytest.raises(RuntimeError):
            drive(sim, job())

    def test_write_count_mismatch_raises(self):
        testbed = build()
        fh = testbed.file_handle("f")

        def scenario():
            # Hand-craft a WRITE whose payload disagrees with its count.
            from repro.net.buffer import JunkPayload
            from repro.nfs.protocol import NfsCall, NfsProc

            client = testbed.clients[0]
            xid = client.matcher.new_xid()
            call = NfsCall(xid=xid, proc=NfsProc.WRITE, fh=fh,
                           offset=0, count=BLOCK_SIZE)
            client.matcher.expect(xid)
            yield from client.host.stack.udp_send(
                client.local_ip, client.local_port, client.server,
                call, data=VirtualPayload(1, 0, 2 * BLOCK_SIZE),
                header=JunkPayload(call.header_size))
            yield testbed.sim.timeout(0.05)

        proc = start(testbed.sim, scenario())
        with pytest.raises(SimulationError, match="payload"):
            run_until_complete(testbed.sim, proc)


class TestDeterminism:
    def _run_once(self, mode):
        from repro.workloads import SpecSfsWorkload

        testbed = TestbedSpec.nfs(mode, flush_interval_s=0.1).build()
        workload = SpecSfsWorkload(testbed, fs_size_bytes=64 << 20,
                                   outstanding_per_client=4, seed=42)
        testbed.setup()
        workload.start()
        testbed.warmup_then_measure(0.05, 0.15)
        return (testbed.meters.throughput.bytes.value,
                testbed.meters.throughput.ops.value,
                round(testbed.server_host.cpu.busy_time(), 12),
                testbed.server_host.counters.snapshot())

    @pytest.mark.parametrize("mode", [ServerMode.ORIGINAL,
                                      ServerMode.NCACHE],
                             ids=lambda m: m.value)
    def test_identical_runs_identical_results(self, mode):
        assert self._run_once(mode) == self._run_once(mode)
