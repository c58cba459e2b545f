"""Property tests across the transport + substitution pipeline."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.copymodel import CopyDiscipline
from repro.core import carve_chunks
from repro.fs import BLOCK_SIZE
from repro.net import Endpoint, Host, Network, VirtualPayload
from repro.net.buffer import (BufferChain, BufferFlavor, BytesPayload,
                              ExtentPayload, NetBuffer, chain_from_payload,
                              concat)
from repro.net.network import Datagram
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
        # receiver reads its train off) or already fragment-sized.  The
        # eager reference is the transport's splitter with the flow's
        # headers on the first fragment and the IP header on the rest.
        frag = a.costs.udp_fragment_payload
        chain = got[0].chain
        lazy = got[0].lazy_frag
        if lazy is not None:
            assert lazy == frag
            assert len(chain.buffers) == 1
            flow = chain.buffers[0].headers
            chain = chain_from_payload(
                chain.buffers[0].payload, lazy,
                lambda index, _frag: list(flow) if index == 0 else [flow[0]],
                flavor=b.buffer_flavor)
            assert chain.payload().materialize() == whole
            assert chain.buffers[0].headers == flow
            assert all(buf.headers == [flow[0]] for buf in chain.buffers[1:])
            train = got[0].rx_train(b.buffer_flavor)
            if train is not None:
                assert [n for n, _ in train.segments] == \
                    [buf.payload_bytes for buf in chain]
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
    ``meta`` entry, and it survives to an RX-hook host: nobody expands
    the sender's one buffer on the way in."""

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
    def test_rx_hook_host_sees_the_lazy_chain(self, sim, two_hosts, proto):
        seen = []

        def hook(dgram):
            seen.append((dgram.lazy_frag,
                         (dgram.tcp, dgram.n_acks, dgram.keyed_payload),
                         [(buf.payload_bytes, buf.csum_known)
                          for buf in dgram.chain],
                         dgram.rx_train(two_hosts[1].buffer_flavor)))
            return dgram
            yield

        dgram, frag = self._deliver(sim, two_hosts, proto, rx_hook=hook)
        (lazy, fields, bufs, train), = seen
        assert lazy == frag and fields == (None, 0, None)
        assert bufs == [(20_000, True)]
        assert [n for n, _ in train.segments] == \
            [frag] * (20_000 // frag) + [20_000 % frag]
        assert all(known for _, known in train.segments)
        assert dgram.lazy_frag == frag


class TestLazyCarveProperty:
    """The RX hook carves a lazy datagram from its train geometry alone;
    that carve must be the carve of the chain the transport would have
    cut, in the receiver's flavor, with every checksum known."""

    @given(frag=st.sampled_from((1448, 1480, 1001)),
           header=st.integers(0, 3000),
           blocks=st.integers(1, 9),
           sender=st.sampled_from(list(BufferFlavor)),
           receiver=st.sampled_from(list(BufferFlavor)),
           tag=st.integers(1, 1000))
    @settings(max_examples=60, deadline=None)
    def test_lazy_carve_is_the_eager_carve(self, frag, header, blocks,
                                           sender, receiver, tag):
        total = blocks * BLOCK_SIZE
        message = concat([BytesPayload(bytes(i % 251 for i in
                                             range(header))),
                          ExtentPayload(tag, 4096, total)])
        dgram = Datagram(protocol="udp", src=Endpoint("a0", 5),
                         dst=Endpoint("b0", 9), message=None,
                         chain=BufferChain([NetBuffer(message,
                                                      flavor=sender)]),
                         n_frames=1, wire_bytes=0, lazy_frag=frag)
        eager = chain_from_payload(message, frag, flavor=receiver)
        for buf in eager:
            buf.csum_known = True
        lazy = carve_chunks(dgram.chain, header, total, BLOCK_SIZE,
                            dgram.rx_train(receiver))
        reference = carve_chunks(eager, header, total, BLOCK_SIZE)
        assert len(lazy) == len(reference) == blocks
        for (payload, shape), (ref_payload, ref_shape) in zip(lazy,
                                                              reference):
            assert shape is ref_shape
            assert shape.flavor is receiver
            assert payload.materialize() == ref_payload.materialize()


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
