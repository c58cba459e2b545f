"""Buffer-by-buffer reference for chunk carving (§3.5).

``split_into_chunks`` is how ``repro.core`` cached arrivals before a
chunk became a payload and a segment shape: it walks the arrived train
and builds every chunk's ``NetBuffer`` list, slicing real buffers.
``repro.core.resize.carve_chunks`` must describe exactly these lists;
the tests compare the two buffer for buffer.
"""

from __future__ import annotations

from typing import List

from repro.core import Chunk, slice_buffer
from repro.net.buffer import (BufferChain, NetBuffer, Payload, SegmentShape,
                              concat)


def split_into_chunks(chain: BufferChain, data_offset: int,
                      total_data: int, chunk_size: int
                      ) -> List[List[NetBuffer]]:
    """Carve the data region of an arrived chain into chunk buffer lists.

    ``data_offset`` skips the protocol header bytes at the front of the
    chain (iSCSI BHS, RPC/NFS call header...).  Returns one buffer list
    per chunk, in order; the final chunk may be short if ``total_data`` is
    not a multiple of ``chunk_size``.
    """
    if data_offset < 0 or total_data < 0:
        raise ValueError("negative offsets")
    chunks: List[List[NetBuffer]] = []
    current: List[NetBuffer] = []
    current_bytes = 0
    consumed = 0  # data bytes consumed so far
    skip = data_offset
    for buf in chain:
        size = buf.payload_bytes
        if skip >= size:
            skip -= size
            continue
        start = skip
        skip = 0
        while start < size and consumed < total_data:
            room = chunk_size - current_bytes
            take = min(size - start, room, total_data - consumed)
            current.append(slice_buffer(buf, start, take))
            current_bytes += take
            consumed += take
            start += take
            if current_bytes == chunk_size:
                chunks.append(current)
                current = []
                current_bytes = 0
        if consumed >= total_data:
            break
    if consumed != total_data:
        raise ValueError(
            f"chain holds {consumed} data bytes, expected {total_data}")
    if current:
        chunks.append(current)
    return chunks


def merge_payload(buffers: List[NetBuffer]) -> Payload:
    """Concatenate buffer payloads (merge direction of §3.5)."""
    return concat(buf.payload for buf in buffers)


def chunk_of_buffers(key, buffers: List[NetBuffer], **kwargs) -> Chunk:
    """The chunk that stands for ``buffers`` (all of one flavor)."""
    if not buffers:
        raise ValueError("chunk needs at least one buffer")
    shape = SegmentShape.of(
        tuple((buf.payload_bytes, buf.csum_known) for buf in buffers),
        buffers[0].flavor)
    return Chunk(key, merge_payload(buffers), shape, **kwargs)
