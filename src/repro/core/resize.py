"""Split/merge between protocol data units and cache chunks (§3.5).

Data arrives in protocol-sized network buffers (1448-byte TCP segments
from iSCSI, 1480-byte IP fragments from NFS/UDP) but is cached in
fixed-size chunks (one filesystem block).  Going the other way, cached
buffers are re-emitted under a different protocol's framing.  This module
does the alignment arithmetic on real buffer lists so every transformation
is byte-checkable.
"""

from __future__ import annotations

from typing import List

from ..net.buffer import BufferChain, NetBuffer, Payload


def slice_buffer(buf: NetBuffer, offset: int, length: int) -> NetBuffer:
    """A view of part of a network buffer.

    A full-buffer slice preserves identity-relevant attributes (cached
    checksum in particular); a partial slice gets a fresh descriptor with
    no inherited checksum — you cannot reuse a checksum of different bytes.
    """
    if offset == 0 and length == buf.payload_bytes:
        return buf
    # A partial slice carries different bytes: its checksum is not the
    # original buffer's, so it cannot be inherited (csum_known stays False).
    return NetBuffer(payload=buf.payload.slice(offset, length),
                     headers=[], flavor=buf.flavor, checksum=None)


def split_into_chunks(chain: BufferChain, data_offset: int,
                      total_data: int, chunk_size: int
                      ) -> List[List[NetBuffer]]:
    """Carve the data region of an arrived chain into chunk buffer lists.

    ``data_offset`` skips the protocol header bytes at the front of the
    chain (iSCSI BHS, RPC/NFS call header...).  Returns one buffer list
    per chunk, in order; the final chunk may be short if ``total_data`` is
    not a multiple of ``chunk_size`` (callers enforce block alignment for
    cacheable traffic).
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


def buffers_for_range(buffers: List[NetBuffer], offset: int, length: int
                      ) -> List[NetBuffer]:
    """The sub-list of (possibly sliced) buffers covering a byte range.

    Used by substitution when an outgoing fragment needs only part of a
    chunk: whole cached buffers are reused as-is (checksums inherited),
    partially-covered buffers are sliced.
    """
    if offset < 0 or length < 0:
        raise ValueError("negative range")
    out: List[NetBuffer] = []
    cursor = offset
    remaining = length
    for buf in buffers:
        if remaining == 0:
            break
        size = buf.payload_bytes
        if cursor >= size:
            cursor -= size
            continue
        take = min(size - cursor, remaining)
        out.append(slice_buffer(buf, cursor, take))
        cursor = 0
        remaining -= take
    if remaining:
        raise ValueError(f"range exceeds chunk by {remaining} bytes")
    return out


def merge_payload(buffers: List[NetBuffer]) -> Payload:
    """Concatenate buffer payloads (merge direction of §3.5)."""
    chain = BufferChain(buffers)
    return chain.payload()
