"""Split/merge alignment logic (§3.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import buffers_for_range, slice_buffer
from repro.net.buffer import (
    BufferChain,
    NetBuffer,
    VirtualPayload,
    chain_from_payload,
)

from chunk_reference import merge_payload, split_into_chunks


def data_chain(total, fragment, header=0, tag=1):
    """A chain like an arrived message: header bytes then data."""
    from repro.net.buffer import JunkPayload, concat

    payload = concat([JunkPayload(header), VirtualPayload(tag, 0, total)])
    return chain_from_payload(payload, fragment)


class TestSliceBuffer:
    def test_full_slice_is_identity(self):
        buf = NetBuffer(payload=VirtualPayload(1, 0, 100), csum_known=True)
        assert slice_buffer(buf, 0, 100) is buf

    def test_partial_slice_fresh_descriptor(self):
        buf = NetBuffer(payload=VirtualPayload(1, 0, 100), csum_known=True)
        part = slice_buffer(buf, 10, 50)
        assert part is not buf
        assert part.payload.materialize() == \
            buf.payload.materialize()[10:60]
        assert not part.csum_known  # different bytes, no checksum reuse


class TestSplitIntoChunks:
    def test_counts_and_sizes(self):
        chain = data_chain(16384, 1448, header=48)
        chunks = split_into_chunks(chain, 48, 16384, 4096)
        assert len(chunks) == 4
        assert all(sum(b.payload_bytes for b in bufs) == 4096
                   for bufs in chunks)

    def test_bytes_preserved_per_chunk(self):
        chain = data_chain(8192, 1448, header=48, tag=5)
        chunks = split_into_chunks(chain, 48, 8192, 4096)
        data = VirtualPayload(5, 0, 8192).materialize()
        for i, bufs in enumerate(chunks):
            assert merge_payload(bufs).materialize() == \
                data[i * 4096:(i + 1) * 4096]

    def test_header_skipped(self):
        chain = data_chain(4096, 1448, header=100, tag=3)
        chunks = split_into_chunks(chain, 100, 4096, 4096)
        assert merge_payload(chunks[0]).materialize() == \
            VirtualPayload(3, 0, 4096).materialize()

    def test_short_final_chunk(self):
        chain = data_chain(5000, 1448)
        chunks = split_into_chunks(chain, 0, 5000, 4096)
        assert [sum(b.payload_bytes for b in c) for c in chunks] == \
            [4096, 904]

    def test_data_shorter_than_declared_rejected(self):
        chain = data_chain(1000, 1448)
        with pytest.raises(ValueError):
            split_into_chunks(chain, 0, 2000, 4096)

    def test_negative_offsets_rejected(self):
        with pytest.raises(ValueError):
            split_into_chunks(BufferChain(), -1, 0, 4096)

    def test_full_buffer_reuse_when_aligned(self):
        # Fragment size == chunk size: every chunk is exactly one buffer,
        # reused by identity.
        chain = data_chain(8192, 4096)
        chunks = split_into_chunks(chain, 0, 8192, 4096)
        assert all(len(bufs) == 1 for bufs in chunks)
        assert chunks[0][0] is chain.buffers[0]

    @given(total=st.integers(1, 20000),
           fragment=st.sampled_from([512, 1448, 1480, 4096]),
           header=st.integers(0, 200),
           chunk_size=st.sampled_from([1024, 4096]))
    @settings(max_examples=60, deadline=None)
    def test_chunks_reassemble_exactly(self, total, fragment, header,
                                       chunk_size):
        chain = data_chain(total, fragment, header=header, tag=9)
        chunks = split_into_chunks(chain, header, total, chunk_size)
        reassembled = b"".join(
            merge_payload(bufs).materialize() for bufs in chunks)
        assert reassembled == VirtualPayload(9, 0, total).materialize()
        # All chunks but the last are exactly chunk_size.
        sizes = [sum(b.payload_bytes for b in bufs) for bufs in chunks]
        assert all(s == chunk_size for s in sizes[:-1])
        assert 0 < sizes[-1] <= chunk_size


class TestBuffersForRange:
    def chunk_buffers(self, tag=2, total=4096, fragment=1448):
        return list(chain_from_payload(VirtualPayload(tag, 0, total),
                                       fragment).buffers)

    def test_whole_range_reuses_buffers(self):
        buffers = self.chunk_buffers()
        out = buffers_for_range(buffers, 0, 4096)
        assert out == buffers  # identity reuse, checksums inheritable

    def test_sub_range_bytes(self):
        buffers = self.chunk_buffers(tag=7)
        out = buffers_for_range(buffers, 1000, 2000)
        assert merge_payload(out).materialize() == \
            VirtualPayload(7, 0, 4096).materialize()[1000:3000]

    def test_range_beyond_chunk_rejected(self):
        with pytest.raises(ValueError):
            buffers_for_range(self.chunk_buffers(), 4000, 200)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            buffers_for_range(self.chunk_buffers(), -1, 10)

    @given(offset=st.integers(0, 4095), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_range_is_byte_exact(self, offset, data):
        length = data.draw(st.integers(0, 4096 - offset))
        buffers = self.chunk_buffers(tag=8)
        out = buffers_for_range(buffers, offset, length)
        assert merge_payload(out).materialize() == \
            VirtualPayload(8, 0, 4096).materialize()[offset:offset + length]
