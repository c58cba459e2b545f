"""NetBuffer / BufferChain structure and fragmentation."""

import pytest

from repro.net import (
    BufferChain,
    BufferFlavor,
    BytesPayload,
    IPv4Header,
    NetBuffer,
    UDPHeader,
    VirtualPayload,
    chain_from_payload,
)


class TestNetBuffer:
    def test_wire_bytes_includes_headers(self):
        buf = NetBuffer(payload=BytesPayload(b"x" * 100),
                        headers=[IPv4Header(), UDPHeader()])
        assert buf.header_bytes == 28
        assert buf.wire_bytes == 128


class TestChain:
    def test_payload_concatenation(self):
        chain = BufferChain([NetBuffer(payload=BytesPayload(b"ab")),
                             NetBuffer(payload=BytesPayload(b"cd"))])
        assert chain.payload().materialize() == b"abcd"
        assert chain.payload_bytes == 4
        assert len(chain) == 2

    def test_append_extend(self):
        chain = BufferChain()
        chain.append(NetBuffer(payload=BytesPayload(b"a")))
        chain.extend([NetBuffer(payload=BytesPayload(b"b"))])
        assert len(chain) == 2


class TestChainFromPayload:
    def test_fragment_sizes(self):
        payload = VirtualPayload(1, 0, 4096)
        chain = chain_from_payload(payload, 1448)
        assert [b.payload_bytes for b in chain] == [1448, 1448, 1200]

    def test_bytes_preserved(self):
        payload = VirtualPayload(1, 0, 5000)
        chain = chain_from_payload(payload, 1480)
        assert chain.payload().materialize() == payload.materialize()

    def test_exact_multiple(self):
        chain = chain_from_payload(VirtualPayload(1, 0, 2896), 1448)
        assert [b.payload_bytes for b in chain] == [1448, 1448]

    def test_empty_payload_single_empty_buffer(self):
        chain = chain_from_payload(BytesPayload(b""), 1448)
        assert len(chain) == 1
        assert chain.payload_bytes == 0

    def test_headers_factory_applied(self):
        def factory(index, frag):
            return [UDPHeader()] if index == 0 else []

        chain = chain_from_payload(VirtualPayload(1, 0, 3000), 1448, factory)
        assert chain.buffers[0].header_bytes == 8
        assert chain.buffers[1].header_bytes == 0

    def test_invalid_fragment_size(self):
        with pytest.raises(ValueError):
            chain_from_payload(BytesPayload(b"x"), 0)

    def test_flavor_propagates(self):
        chain = chain_from_payload(VirtualPayload(1, 0, 100), 50,
                                   flavor=BufferFlavor.MBUF)
        assert all(b.flavor is BufferFlavor.MBUF for b in chain)
