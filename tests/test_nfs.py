"""NFS protocol, server dispatch and client behaviour."""

import pytest

from repro.fs import BLOCK_SIZE
from repro.net.buffer import VirtualPayload
from repro.nfs import (
    METADATA_PROCS,
    FileHandle,
    NfsCall,
    NfsProc,
    read_reply_data,
)
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from conftest import CopyWindow


def make_testbed(mode=ServerMode.ORIGINAL, **overrides):
    testbed = TestbedSpec.nfs(mode, flush_interval_s=None,
                              **overrides).build()
    testbed.image.create_file("data.bin", 16 << 20)
    testbed.setup()
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


class TestProtocol:
    def test_metadata_classification(self):
        assert NfsProc.GETATTR in METADATA_PROCS
        assert NfsProc.READ not in METADATA_PROCS
        assert NfsProc.WRITE not in METADATA_PROCS

    def test_call_header_includes_name(self):
        bare = NfsCall(1, NfsProc.LOOKUP)
        named = NfsCall(1, NfsProc.LOOKUP, name="hello")
        assert named.header_size == bare.header_size + 5

    def test_file_handle_hashable(self):
        assert FileHandle(3, 1) == FileHandle(3, 1)
        assert len({FileHandle(3, 1), FileHandle(3, 1)}) == 1


class TestOperations:
    def test_lookup_returns_handle_and_size(self):
        testbed = make_testbed()

        def scenario():
            reply = yield from testbed.clients[0].lookup("data.bin")
            return reply

        reply = run_scenario(testbed, scenario())
        assert reply.ok
        assert reply.fh == testbed.file_handle("data.bin")
        assert reply.size == 16 << 20

    def test_lookup_missing_file(self):
        testbed = make_testbed()

        def scenario():
            return (yield from testbed.clients[0].lookup("ghost"))

        reply = run_scenario(testbed, scenario())
        assert not reply.ok

    def test_getattr(self):
        testbed = make_testbed()
        fh = testbed.file_handle("data.bin")

        def scenario():
            return (yield from testbed.clients[0].getattr(fh))

        reply = run_scenario(testbed, scenario())
        assert reply.ok and reply.size == 16 << 20

    def test_read_returns_file_bytes(self):
        testbed = make_testbed()
        fh = testbed.file_handle("data.bin")
        inode = testbed.image.lookup("data.bin")

        def scenario():
            return (yield from testbed.clients[0].read(fh, 8192, 16384))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, 8192, 16384).materialize()

    def test_read_past_eof_fails(self):
        testbed = make_testbed()
        fh = testbed.file_handle("data.bin")

        def scenario():
            return (yield from testbed.clients[0].read(fh, 16 << 20, 4096))

        dgram = run_scenario(testbed, scenario())
        assert not dgram.message.ok

    def test_read_clamped_at_eof(self):
        testbed = make_testbed(mode=ServerMode.ORIGINAL)
        testbed.image.create_file("small", 6000)
        fh = testbed.file_handle("small")

        def scenario():
            return (yield from testbed.clients[0].read(fh, 4096, 8192))

        dgram = run_scenario(testbed, scenario())
        assert dgram.message.count == 6000 - 4096

    def test_write_then_read(self):
        testbed = make_testbed()
        fh = testbed.file_handle("data.bin")
        data = VirtualPayload(21, 0, 8192)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            return (yield from testbed.clients[0].read(fh, 0, 8192))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()

    def test_create_allocates_file(self):
        testbed = make_testbed()

        def scenario():
            dgram = yield from testbed.clients[0].call(
                NfsProc.CREATE, name="newfile", count=8192)
            return dgram.message

        reply = run_scenario(testbed, scenario())
        assert reply.ok
        assert testbed.image.lookup("newfile").size == 8192

    def test_commit_flushes_dirty_blocks(self):
        testbed = make_testbed()
        fh = testbed.file_handle("data.bin")
        inode = testbed.image.lookup("data.bin")
        data = VirtualPayload(22, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.clients[0].commit(fh, 0, BLOCK_SIZE)

        run_scenario(testbed, scenario())
        assert testbed.disk_store.read_block(
            inode.block_lbn(0)).materialize() == data.materialize()

    def test_readdir_and_fsstat(self):
        testbed = make_testbed()

        def scenario():
            a = yield from testbed.clients[0].call(NfsProc.READDIR,
                                                   name="data.bin")
            b = yield from testbed.clients[0].call(NfsProc.FSSTAT)
            return a.message, b.message

        a, b = run_scenario(testbed, scenario())
        assert a.ok and b.ok

    def test_null_op(self):
        testbed = make_testbed()

        def scenario():
            return (yield from testbed.clients[0].call(NfsProc.NULL))

        assert run_scenario(testbed, scenario()).message.ok


class TestConcurrency:
    def test_daemon_pool_serves_concurrent_clients(self):
        testbed = make_testbed(n_daemons=4)
        fh = testbed.file_handle("data.bin")
        from repro.sim import AllOf

        def one_read(client, offset):
            return (yield from client.read(fh, offset, 4096))

        def scenario():
            procs = []
            for i in range(8):
                client = testbed.clients[i % 2]
                procs.append(start(testbed.sim,
                                   one_read(client, i * 4096)))
            results = yield AllOf(testbed.sim, procs)
            return results

        results = run_scenario(testbed, scenario())
        assert len(results) == 8
        assert all(d.message.ok for d in results)
        assert testbed.nfs_server.requests_served == 8

    def test_xid_matching_under_concurrency(self):
        testbed = make_testbed()
        fh = testbed.file_handle("data.bin")
        inode = testbed.image.lookup("data.bin")
        from repro.sim import AllOf

        def one(offset):
            dgram = yield from testbed.clients[0].read(fh, offset, 4096)
            data = read_reply_data(dgram).materialize()
            expected = testbed.image.file_payload(
                inode, offset, 4096).materialize()
            return data == expected

        def scenario():
            procs = [start(testbed.sim, one(i * 8192)) for i in range(6)]
            return (yield AllOf(testbed.sim, procs))

        assert all(run_scenario(testbed, scenario()))


class TestTraces:
    def test_metadata_op_has_no_regular_copies(self):
        testbed = make_testbed()

        def scenario():
            with CopyWindow(testbed.sim) as trace:
                yield from testbed.clients[0].getattr(
                    testbed.file_handle("data.bin"))
            return trace

        trace = run_scenario(testbed, scenario())
        assert trace.physical_copies(regular_only=True, where="server") == 0
