"""FreeBSD mbuf flavor end-to-end, host wiring details, misc coverage."""

import pytest

from repro.net import BufferFlavor, Host, Network, Endpoint
from repro.net.buffer import VirtualPayload
from repro.nfs import read_reply_data
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim import Simulator, start
from conftest import drive


class TestMbufFlavorEndToEnd:
    """§4.2: porting to FreeBSD changes the buffer structure, nothing else.

    The testbed machinery runs unmodified with MBUF-flavoured hosts; the
    NCache data path must remain byte-correct.
    """

    def build(self, mode):
        testbed = TestbedSpec.nfs(
            mode, ncache_strict=(mode is ServerMode.NCACHE),
            flush_interval_s=None).build()
        for host in testbed.all_hosts():
            host.buffer_flavor = BufferFlavor.MBUF
        testbed.image.create_file("bsd.bin", 4 << 20)
        testbed.setup()
        return testbed

    @pytest.mark.parametrize("mode", [ServerMode.ORIGINAL,
                                      ServerMode.NCACHE],
                             ids=lambda m: m.value)
    def test_read_write_roundtrip_with_mbufs(self, mode):
        testbed = self.build(mode)
        fh = testbed.file_handle("bsd.bin")
        data = VirtualPayload(61, 0, 8192)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            return (yield from testbed.clients[0].read(fh, 0, 8192))

        proc = start(testbed.sim, scenario())
        run_until_complete(testbed.sim, proc)
        assert read_reply_data(proc.value).materialize() == \
            data.materialize()

    def test_mbuf_chunks_in_store(self):
        testbed = self.build(ServerMode.NCACHE)
        fh = testbed.file_handle("bsd.bin")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 4096)

        run_until_complete(testbed.sim, start(testbed.sim, scenario()))
        store = testbed.ncache.store
        chunk = next(iter(store._lbn.values()))
        assert all(b.flavor is BufferFlavor.MBUF for b in chunk.buffers)


class TestHostDetails:
    def test_primary_ip_requires_nic(self, sim):
        host = Host(sim, "bare")
        with pytest.raises(Exception):
            _ = host.ip

    def test_repr_shows_nics(self, sim, network):
        host = Host(sim, "h")
        host.add_nic(network, "h0")
        assert "h0" in repr(host)

    def test_custom_link_parameters(self, sim, network):
        host = Host(sim, "h")
        nic = host.add_nic(network, "h0", bandwidth_bps=1e8,
                           latency_s=1e-3)
        assert nic.tx_link.bandwidth_bps == 1e8
        assert nic.rx_link.latency_s == 1e-3

    def test_checksum_offload_inherited_by_nics(self, sim, network):
        host = Host(sim, "h", checksum_offload=False)
        nic = host.add_nic(network, "h0")
        assert nic.checksum_offload is False


class TestSoftwareChecksumCosts:
    def test_offload_off_charges_both_sides(self, sim, network):
        a = Host(sim, "a", checksum_offload=False)
        b = Host(sim, "b", checksum_offload=False)
        a.add_nic(network, "a0")
        b.add_nic(network, "b0")

        def handler(dgram):
            return
            yield

        b.stack.udp_bind(9, handler)

        def send():
            yield from a.stack.udp_send(
                "a0", 5, Endpoint("b0", 9), None,
                VirtualPayload(1, 0, 16384))

        drive(sim, send())
        sim.run()
        assert a.counters["checksum.computed"].value > 0
        assert b.counters["checksum.bytes"].value >= 16384

    def test_offload_on_charges_nothing(self, sim, two_hosts):
        a, b = two_hosts

        def handler(dgram):
            return
            yield

        b.stack.udp_bind(9, handler)

        def send():
            yield from a.stack.udp_send(
                "a0", 5, Endpoint("b0", 9), None,
                VirtualPayload(1, 0, 16384))

        drive(sim, send())
        sim.run()
        assert "checksum.computed" not in a.counters
        assert "checksum.computed" not in b.counters


class TestNetworkRouting:
    def test_no_route_raises(self, sim, network, two_hosts):
        a, _ = two_hosts

        def send():
            from repro.net.buffer import BytesPayload

            yield from a.stack.udp_send("a0", 5, Endpoint("nowhere", 9),
                                        None, BytesPayload(b"x"))

        from repro.sim import SimulationError

        drive(sim, send())
        with pytest.raises(SimulationError, match="no route"):
            sim.run()

    def test_transmit_without_network_raises(self, sim):
        from repro.net.network import NIC, Datagram
        from repro.net import BufferChain
        from repro.sim import SimulationError

        host = Host(sim, "h")
        nic = NIC(sim, host, "lone", 1e9, 0.0)
        dgram = Datagram("udp", Endpoint("lone", 1), Endpoint("x", 2),
                         None, BufferChain(), 1, 100)

        def job():
            yield from nic.transmit(dgram)

        with pytest.raises(SimulationError, match="not attached"):
            drive(sim, job())
