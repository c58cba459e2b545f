"""Property tests across the transport + substitution pipeline."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.copymodel import CopyDiscipline
from repro.fs import BLOCK_SIZE
from repro.net import Endpoint, Host, Network, VirtualPayload
from repro.net.buffer import BytesPayload, concat
from repro.nfs import read_reply_data
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim import Simulator, start
from repro.sim.process import Process


class TestUdpFragmentationProperty:
    @given(header_len=st.integers(0, 300),
           data_len=st.integers(0, 40_000),
           tag=st.integers(1, 1000))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_message_survives_fragmentation(self, header_len,
                                                data_len, tag):
        sim = Simulator()
        network = Network(sim)
        a = Host(sim, "a")
        b = Host(sim, "b")
        a.add_nic(network, "a0")
        b.add_nic(network, "b0")
        got = []

        def handler(dgram):
            got.append(dgram)

        b.stack.udp_bind(9, handler)
        header = BytesPayload(bytes((i * 7) % 256
                                    for i in range(header_len)))
        data = VirtualPayload(tag, 0, data_len)

        def send():
            yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9), None,
                                        data, header=header)

        proc = start(sim, send())
        sim.run()
        assert proc.triggered and not proc.failed
        whole = got[0].chain.payload().materialize()
        assert whole == header.materialize() + data.materialize()
        # Fragment sizing invariant: the wire chain is either lazily
        # fragmented (one buffer plus the ``lazy_frag`` size a caching
        # receiver expands with) or already fragment-sized.
        frag = a.costs.udp_fragment_payload
        chain = got[0].chain
        lazy = got[0].lazy_frag
        if lazy is not None:
            assert lazy == frag
            assert len(chain.buffers) == 1
            chain = b.stack._build_chain(
                chain.buffers[0].payload, lazy,
                got[0].src.ip, got[0].src.port, got[0].dst, "udp")
            assert chain.payload().materialize() == whole
        assert all(buf.payload_bytes <= frag for buf in chain)


class TestTcpSegmentationProperty:
    @given(data_len=st.integers(1, 60_000), tag=st.integers(1, 1000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_message_survives_segmentation(self, data_len, tag):
        sim = Simulator()
        network = Network(sim)
        a = Host(sim, "a")
        b = Host(sim, "b")
        a.add_nic(network, "a0")
        b.add_nic(network, "b0")
        got = []

        def on_message(conn, dgram):
            got.append(dgram)

        def acceptor(conn):
            conn.on_message = on_message

        b.stack.tcp_listen(80, acceptor)

        def run():
            conn = yield from a.stack.tcp_connect("a0", 1000,
                                                  Endpoint("b0", 80))
            yield from conn.send(None, VirtualPayload(tag, 0, data_len))

        start(sim, run())
        sim.run()
        assert got[0].chain.payload().materialize() == \
            VirtualPayload(tag, 0, data_len).materialize()


class TestLazyFragField:
    """The lazy-fragmentation size is a typed datagram field, not a
    ``meta`` entry, and an RX-hook host never sees the lazy chain."""

    @staticmethod
    def _deliver(sim, hosts, proto, rx_hook=None):
        a, b = hosts
        if rx_hook is not None:
            b.add_rx_hook(rx_hook)
        got = []

        def handler(*args):
            got.append(args[-1])

        data = VirtualPayload(7, 0, 20_000)
        if proto == "udp":
            b.stack.udp_bind(9, handler)

            def run():
                yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9),
                                            None, data)
        else:
            def acceptor(conn):
                conn.on_message = handler

            b.stack.tcp_listen(9, acceptor)

            def run():
                conn = yield from a.stack.tcp_connect("a0", 5,
                                                      Endpoint("b0", 9))
                yield from conn.send(None, data)

        start(sim, run())
        sim.run()
        frag = (a.costs.udp_fragment_payload if proto == "udp"
                else a.costs.tcp_mss)
        return got[0], frag

    @pytest.mark.parametrize("proto", ["udp", "tcp"])
    def test_marker_is_a_field_not_a_meta_key(self, sim, two_hosts, proto):
        dgram, frag = self._deliver(sim, two_hosts, proto)
        assert (dgram.tcp, dgram.n_acks, dgram.keyed_payload) == \
            (None, 0, None)
        assert dgram.lazy_frag == frag
        assert len(dgram.chain.buffers) == 1

    @pytest.mark.parametrize("proto", ["udp", "tcp"])
    def test_rx_hook_host_sees_fragment_buffers(self, sim, two_hosts, proto):
        seen = []

        def hook(dgram):
            seen.append((dgram.lazy_frag,
                         (dgram.tcp, dgram.n_acks, dgram.keyed_payload),
                         [(buf.payload_bytes, buf.csum_known)
                          for buf in dgram.chain]))
            return dgram
            yield

        dgram, frag = self._deliver(sim, two_hosts, proto, rx_hook=hook)
        (lazy, fields, bufs), = seen
        assert lazy is None and fields == (None, 0, None)
        assert len(bufs) > 1
        assert all(size <= frag and known for size, known in bufs)
        assert sum(size for size, _ in bufs) == 20_000
        assert dgram.lazy_frag is None


class TestSubstitutionProperty:
    """Arbitrary (offset, length) NFS reads through a warm NCache server
    must return exactly the file's bytes after substitution."""

    @pytest.fixture(scope="class")
    def warm_testbed(self):
        testbed = TestbedSpec.nfs(ServerMode.NCACHE,
                                  flush_interval_s=None).build()
        testbed.image.create_file("prop.bin", 64 * BLOCK_SIZE)
        testbed.setup()
        fh = testbed.file_handle("prop.bin")

        def warm():
            yield from testbed.clients[0].read(fh, 0, 32 * BLOCK_SIZE)
            yield from testbed.clients[0].read(fh, 32 * BLOCK_SIZE,
                                               32 * BLOCK_SIZE)

        run_until_complete(testbed.sim, start(testbed.sim, warm()))
        return testbed, fh

    @given(data=st.data())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_ranges_byte_exact(self, warm_testbed, data):
        testbed, fh = warm_testbed
        inode = testbed.image.lookup("prop.bin")
        offset = data.draw(st.integers(0, inode.size - 1))
        length = data.draw(st.integers(1, min(40_000, inode.size - offset)))

        def scenario():
            return (yield from testbed.clients[0].read(fh, offset, length))

        proc = start(testbed.sim, scenario())
        run_until_complete(testbed.sim, proc)
        dgram = proc.value
        assert read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, offset, length).materialize()
