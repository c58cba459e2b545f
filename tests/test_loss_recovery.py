"""UDP loss, client retransmission, duplicate-request cache."""

import pytest

from repro.core.keys import LbnKey
from repro.fs import BLOCK_SIZE
from repro.net.buffer import JunkPayload, VirtualPayload
from repro.nfs import read_reply_data
from repro.nfs.protocol import NfsCall, NfsProc
from repro.nfs.server import DuplicateRequestCache
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim import SimulationError
from repro.sim.process import start


def build(mode=ServerMode.ORIGINAL, loss=0.0, seed=3, **overrides):
    testbed = TestbedSpec.nfs(mode=mode, flush_interval_s=None,
                              **overrides).build()
    testbed.image.create_file("lossy.bin", 8 << 20)
    testbed.setup()  # iSCSI login first (TCP, never dropped)
    if loss:
        testbed.network.set_loss(loss, seed=seed)
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


class TestLossInjection:
    def test_loss_rate_validation(self, sim, network):
        with pytest.raises(SimulationError):
            network.set_loss(1.5)

    def test_zero_loss_drops_nothing(self):
        testbed = build(loss=0.0)
        fh = testbed.file_handle("lossy.bin")

        def scenario():
            for i in range(10):
                yield from testbed.clients[0].read(fh, i * 4096, 4096)

        run_scenario(testbed, scenario())
        assert testbed.network.dropped == 0
        assert testbed.clients[0].retransmissions == 0

    def test_tcp_never_dropped(self):
        # Heavy loss, but the iSCSI leg (TCP) must still work: drive reads
        # whose NFS legs may retransmit while the storage leg never does.
        testbed = build(loss=0.3)
        fh = testbed.file_handle("lossy.bin")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 4096)

        run_scenario(testbed, scenario())
        assert testbed.target.commands_served >= 1


@pytest.mark.parametrize("mode", [ServerMode.ORIGINAL, ServerMode.NCACHE],
                         ids=lambda m: m.value)
class TestRetransmission:
    def test_reads_survive_loss_byte_exact(self, mode):
        testbed = build(mode=mode, loss=0.2, seed=11)
        fh = testbed.file_handle("lossy.bin")
        inode = testbed.image.lookup("lossy.bin")

        def scenario():
            for i in range(30):
                offset = (i % 16) * BLOCK_SIZE
                dgram = yield from testbed.clients[0].read(fh, offset,
                                                           BLOCK_SIZE)
                expected = testbed.image.file_payload(
                    inode, offset, BLOCK_SIZE).materialize()
                assert read_reply_data(dgram).materialize() == expected

        run_scenario(testbed, scenario())
        assert testbed.network.dropped > 0
        assert testbed.clients[0].retransmissions > 0

    def test_writes_survive_loss(self, mode):
        testbed = build(mode=mode, loss=0.25, seed=7)
        fh = testbed.file_handle("lossy.bin")

        def scenario():
            for i in range(10):
                data = VirtualPayload(3000 + i, 0, BLOCK_SIZE)
                yield from testbed.clients[0].write(fh, i * BLOCK_SIZE,
                                                    data)
            # Verify every block.
            for i in range(10):
                dgram = yield from testbed.clients[0].read(
                    fh, i * BLOCK_SIZE, BLOCK_SIZE)
                assert read_reply_data(dgram).materialize() == \
                    VirtualPayload(3000 + i, 0, BLOCK_SIZE).materialize()

        run_scenario(testbed, scenario())


class TestDuplicateRequestCache:
    def test_drc_replays_without_reexecution(self):
        testbed = build(loss=0.0)
        fh = testbed.file_handle("lossy.bin")
        client = testbed.clients[0]

        def scenario():
            # Issue a WRITE, then replay the identical datagram by hand
            # (as if the reply, not the request, had been lost).
            data = VirtualPayload(1, 0, BLOCK_SIZE)
            yield from client.write(fh, 0, data)
            served_before = testbed.nfs_server.requests_served
            call = NfsCall(xid=1, proc=NfsProc.WRITE, fh=fh, offset=0,
                           count=BLOCK_SIZE)  # xid 1 = the write above
            client.matcher.expect(1)
            yield from client.host.stack.udp_send(
                client.local_ip, client.local_port, client.server,
                call, data=data, header=JunkPayload(call.header_size))
            yield testbed.sim.timeout(0.02)
            return served_before

        run_scenario(testbed, scenario())
        assert testbed.server_host.counters["nfs.drc_hit"].value == 1

    def test_drc_bounded_capacity(self):
        drc = DuplicateRequestCache(capacity=4)

        class FakeDgram:
            def __init__(self, xid):
                from repro.net import Endpoint

                self.src = Endpoint("c", 9)
                self.message = type("M", (), {"xid": xid})()

        for xid in range(10):
            drc.remember(FakeDgram(xid), f"reply {xid}")
        assert len(drc) == 4
        assert drc.lookup(FakeDgram(9)) is not None
        assert drc.lookup(FakeDgram(0)) is None

    def test_duplicate_while_in_progress_dropped(self):
        testbed = build(loss=0.0)
        fh = testbed.file_handle("lossy.bin")
        client = testbed.clients[0]

        def scenario():
            # Two identical datagrams in flight at once: the slow READ
            # executes once, the duplicate is dropped silently.
            call = NfsCall(xid=500, proc=NfsProc.READ, fh=fh, offset=0,
                           count=32768)
            waiter = client.matcher.expect(500)
            for _ in range(2):
                yield from client.host.stack.udp_send(
                    client.local_ip, client.local_port, client.server,
                    call, data=JunkPayload(0),
                    header=JunkPayload(call.header_size))
            yield waiter

        run_scenario(testbed, scenario())
        counters = testbed.server_host.counters
        assert counters["nfs.drc_in_progress_drop"].value == 1

    @staticmethod
    def _replay(client, call):
        """Send ``call`` again, as if its reply had been lost; return the
        event the reply triggers."""
        waiter = client.matcher.expect(call.xid)
        yield from client.host.stack.udp_send(
            client.local_ip, client.local_port, client.server,
            call, data=JunkPayload(0), header=JunkPayload(call.header_size))
        return waiter

    @pytest.mark.parametrize("blocks", [1, 8])
    def test_ncache_replays_from_cache(self, blocks):
        """A retransmitted READ runs again (the DRC keeps no READ reply)
        and is substituted again — retransmission straight from the
        network-centric cache (§1's resend benefit).  It carries the
        original reply's bytes and the same key copies, whether its
        data is one placeholder or a composite of eight."""
        testbed = build(mode=ServerMode.NCACHE, loss=0.0)
        fh = testbed.file_handle("lossy.bin")
        inode = testbed.image.lookup("lossy.bin")
        client = testbed.clients[0]
        counters = testbed.server_host.counters
        count = blocks * BLOCK_SIZE
        got = {}

        def key_copies():
            return counters["copies.logical.sock_tx"].value

        def scenario():
            before = key_copies()
            got["original"] = yield from client.read(fh, 0, count)  # xid 1
            got["original_keys"] = key_copies() - before
            got["subs_before"] = counters["ncache.substituted_replies"].value
            before = key_copies()
            waiter = yield from self._replay(client, NfsCall(
                xid=1, proc=NfsProc.READ, fh=fh, offset=0, count=count))
            got["replay"] = yield waiter
            got["replay_keys"] = key_copies() - before

        run_scenario(testbed, scenario())
        original = read_reply_data(got["original"]).materialize()
        assert original == \
            testbed.image.file_payload(inode, 0, count).materialize()
        assert read_reply_data(got["replay"]).materialize() == original
        assert got["replay_keys"] == got["original_keys"] == blocks
        assert counters["ncache.substituted_replies"].value > \
            got["subs_before"]
        assert counters["nfs.drc_hit"].value == 0

    def test_a_read_leaves_no_drc_entry(self):
        """Only the replies of calls that must not run twice are kept: a
        READ's would hold its keys (under NCache) or its bytes for 2,048
        requests, and a replay could not pin what they name."""
        testbed = build(mode=ServerMode.NCACHE, loss=0.0)
        fh = testbed.file_handle("lossy.bin")
        client = testbed.clients[0]

        def scenario():
            for i in range(4):
                yield from client.read(fh, i * 8 * BLOCK_SIZE, 8 * BLOCK_SIZE)
            yield from client.write(fh, 0, VirtualPayload(3, 0, BLOCK_SIZE))

        run_scenario(testbed, scenario())
        drc = testbed.nfs_server.drc
        assert len(drc) == 1
        assert [r.proc for r in drc._entries.values()] == [NfsProc.WRITE]

    def test_replay_of_an_evicted_read_serves_no_junk(self):
        testbed = build(mode=ServerMode.NCACHE, loss=0.0)
        fh = testbed.file_handle("lossy.bin")
        inode = testbed.image.lookup("lossy.bin")
        client = testbed.clients[0]
        counters = testbed.server_host.counters
        store = testbed.ncache.store
        key = LbnKey(testbed.ncache.lun, inode.block_lbn(0))
        got = {}

        def scenario():
            yield from client.read(fh, 0, BLOCK_SIZE)  # xid 1
            assert store.peek_lbn(key) is not None
            while store.peek_lbn(key) is not None:
                store.make_room(store.capacity_bytes - store.used_bytes + 1)
            waiter = yield from self._replay(client, NfsCall(
                xid=1, proc=NfsProc.READ, fh=fh, offset=0, count=BLOCK_SIZE))
            got["replay"] = yield waiter

        run_scenario(testbed, scenario())
        assert counters["nfs.drc_hit"].value == 0  # executed again
        assert read_reply_data(got["replay"]).materialize() == \
            testbed.image.file_payload(inode, 0, BLOCK_SIZE).materialize()
