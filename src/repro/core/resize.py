"""Split/merge between protocol data units and cache chunks (§3.5).

Data arrives in protocol-sized network buffers (1448-byte TCP segments
from iSCSI, 1480-byte IP fragments from NFS/UDP) but is cached in
fixed-size chunks (one filesystem block).  Going the other way, cached
buffers are re-emitted under a different protocol's framing.  The way in
is arithmetic over the arrived train's segment sizes — a lazy datagram's
fragment size and length, or a substituted chain's buffers — and builds
no buffer (:func:`carve_chunks`: a chunk is a payload and a segment
shape); the way out for a partial range slices real buffer lists
(:func:`buffers_for_range`).  Both are byte-checkable against the
buffer-by-buffer reference the tests keep.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..net.buffer import (BufferChain, BufferFlavor, NetBuffer, Payload,
                          SegmentShape)


def slice_buffer(buf: NetBuffer, offset: int, length: int) -> NetBuffer:
    """A view of part of a network buffer.

    A full-buffer slice preserves identity-relevant attributes (a known
    checksum in particular); a partial slice gets a fresh descriptor with
    no inherited checksum — you cannot reuse a checksum of different bytes.
    """
    if offset == 0 and length == buf.payload_bytes:
        return buf
    # A partial slice carries different bytes: its checksum is not the
    # original buffer's, so it cannot be inherited (csum_known stays False).
    return NetBuffer(payload=buf.payload.slice(offset, length),
                     headers=[], flavor=buf.flavor)


#: ``(segments, flavor, data_offset, total_data, chunk_size) -> shapes``:
#: the carve of one train geometry, walked once.  Grows with the
#: distinct geometries seen, never with traffic.
_CARVED: Dict[tuple, Tuple[SegmentShape, ...]] = {}


def _carve_shapes(segments: Tuple[Tuple[int, bool], ...],
                  flavor: Optional[BufferFlavor], data_offset: int,
                  total_data: int, chunk_size: int
                  ) -> Tuple[SegmentShape, ...]:
    """One shape per chunk of a train of buffers, given each buffer's
    ``(payload size, csum_known)`` in ``segments``.

    A buffer that lands whole in a chunk keeps its checksum state; a
    buffer cut by the header offset, a chunk boundary or the end of the
    data contributes fresh descriptors with no inherited checksum — you
    cannot reuse a checksum of different bytes (:func:`slice_buffer`).
    """
    shapes: List[SegmentShape] = []
    current: List[Tuple[int, bool]] = []
    room = chunk_size
    left = total_data
    skip = data_offset
    for size, known in segments:
        if skip >= size:
            skip -= size
            continue
        start = skip
        skip = 0
        while start < size and left:
            take = min(size - start, room, left)
            current.append((take, known and take == size))
            start += take
            room -= take
            left -= take
            if not room:
                shapes.append(SegmentShape.of(tuple(current), flavor))
                current = []
                room = chunk_size
        if not left:
            break
    if left:
        raise ValueError(f"chain holds {total_data - left} data bytes, "
                         f"expected {total_data}")
    if current:
        shapes.append(SegmentShape.of(tuple(current), flavor))
    return tuple(shapes)


def carve_chunks(chain: BufferChain, data_offset: int, total_data: int,
                 chunk_size: int, train: Optional[SegmentShape] = None
                 ) -> List[Tuple[Payload, SegmentShape]]:
    """Carve the data region of an arrived chain into chunks.

    ``data_offset`` skips the protocol header bytes at the front of the
    chain (iSCSI BHS, RPC/NFS call header...).  Returns one ``(payload,
    shape)`` per chunk, in order: the chunk's bytes as one slice of the
    reassembled message, and the buffer list the chunk stands for —
    each arrived buffer's part in it — as arithmetic over the train's
    geometry, whatever it is (a transport's uniform fragments, a peer's
    substituted train): ``train``'s segments and flavor for a lazily
    fragmented datagram's one buffer (``Datagram.rx_train``), else the
    chain's buffer sizes and checksum states in its first buffer's
    flavor.  No per-chunk buffer is built.  The final chunk may be
    short if ``total_data`` is not a multiple of ``chunk_size`` (callers
    enforce block alignment for cacheable traffic).
    """
    if data_offset < 0 or total_data < 0:
        raise ValueError("negative offsets")
    if train is None:
        buffers = chain.buffers
        geometry = (tuple([(buf.payload.length, buf.csum_known)
                           for buf in buffers]),
                    buffers[0].flavor if buffers else None,
                    data_offset, total_data, chunk_size)
    else:
        geometry = (train.segments, train.flavor,
                    data_offset, total_data, chunk_size)
    shapes = _CARVED.get(geometry)
    if shapes is None:
        shapes = _CARVED[geometry] = _carve_shapes(*geometry)
    message = chain.payload()
    carved: List[Tuple[Payload, SegmentShape]] = []
    for shape in shapes:
        carved.append((message.slice(data_offset, shape.length), shape))
        data_offset += shape.length
    return carved


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
