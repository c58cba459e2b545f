"""Cache chunks: fixed-size data units made of lists of network buffers.

"Physically the network-centric cache consists of fixed-sized data chunks,
each of which consists of a list of network buffers" (§3.4).  A chunk's
buffers are the packets exactly as they arrived (iSCSI Data-In segments or
NFS write request fragments), cached checksums included — that is what
makes zero-work retransmission and checksum inheritance possible.

A chunk holds that list as what determines it, not as objects: one
payload descriptor for the block's bytes plus one interned
:class:`~repro.net.buffer.SegmentShape` — per buffer, how many bytes it
carries and whether its checksum is known, and the buffers' flavor.  A
warm-started chunk (:meth:`Chunk.from_payload`) has the uniform shape
the transport would have cut; a chunk carved out of an arrived train
(:func:`repro.core.resize.carve_chunks`) has that train's.  Either way a
resident block is one chunk and one payload view, whatever it was cut
into, which is most of a large cache's resident memory.

A chunk stays that way when it is served: whole-block substitution
sends it as one segment-lazy descriptor (:meth:`Chunk.segment_buffer`)
and counts its packets from the shape.  The buffer list is built — once,
by ``.buffers``, and then kept, because the stack mutates buffer
checksum state and that mutation *is* the checksum-inheritance
mechanism — only for an observer of individual buffers: a sender
without checksum offload, ``inherit_checksums=False``, a partial-range
substitution (DESIGN.md §11 lists them).  ``length``, ``footprint`` and
the built list all read the one shape, so they agree by construction.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from ..check import sanitizer as _sanitizer
from ..net.buffer import (BufferFlavor, CompositePayload, ExtentPayload,
                          NetBuffer, Payload, SegmentShape, concat,
                          expand_segments)
from .keys import FhoKey, LbnKey

ChunkKey = Union[LbnKey, FhoKey]


def _restamp(payload: Payload, generation: int) -> Payload:
    """``payload`` with every extent view restamped at ``generation``."""
    if type(payload) is ExtentPayload:
        return payload.with_generation(generation)
    if isinstance(payload, CompositePayload):
        parts = [_restamp(p, generation) for p in payload.parts]
        if all(a is b for a, b in zip(parts, payload.parts)):
            return payload
        return concat(parts)
    return payload


class Chunk:
    """One fixed-size cached block: a payload and its buffers' shape."""

    __slots__ = ("key", "dirty", "pins", "heir", "lbn_hint", "generation",
                 "_payload", "_shape", "_buffers", "__weakref__")

    def __init__(self, key: ChunkKey, payload: Payload, shape: SegmentShape,
                 dirty: bool = False,
                 lbn_hint: Optional[LbnKey] = None) -> None:
        if shape.length != payload.length:
            raise ValueError(
                f"shape describes {shape.length} bytes, payload holds "
                f"{payload.length}")
        self.key = key
        self._payload = payload
        self._shape = shape
        #: Only ever the kept result of ``.buffers``, for an observer.
        self._buffers: Optional[List[NetBuffer]] = None
        self.dirty = dirty
        self.pins = 0
        #: The chunk that replaced this one under its key while pinned;
        #: it holds the pins, and releasing one here releases it there.
        self.heir: Optional[Chunk] = None
        #: For dirty FHO chunks: where this block will land on disk, used
        #: when NCache itself must write the chunk back (§3.4).
        self.lbn_hint = lbn_hint
        #: Bumped when the backing data is overwritten or the chunk is
        #: remapped FHO→LBN; stamped onto the chunk's extent views.
        self.generation = 0

    @classmethod
    def from_payload(cls, key: ChunkKey, payload: Payload,
                     fragment_size: int, *,
                     flavor: BufferFlavor = BufferFlavor.SK_BUFF,
                     csum_known: bool = True,
                     dirty: bool = False,
                     lbn_hint: Optional[LbnKey] = None) -> "Chunk":
        """The chunk ``chain_from_payload(payload, fragment_size)`` would
        be cached as, every buffer's checksum state ``csum_known``: the
        uniform shape.  Warm-started caches are built this way.
        """
        return cls(key, payload,
                   SegmentShape.uniform(payload.length, fragment_size,
                                        csum_known, flavor),
                   dirty, lbn_hint)

    @property
    def buffers(self) -> List[NetBuffer]:
        """The chunk's network buffers (built on demand, for observers).

        The built list is kept: the stack marks transport checksums as
        computed directly on these buffer objects, and that state must
        survive to the next substitution of the same chunk.
        """
        bufs = self._buffers
        if bufs is None:
            # The chunk's own descriptor, expanded: one splitting rule
            # for the list kept here and the trains built on the wire.
            bufs = self._buffers = expand_segments([self.segment_buffer([])])
        return bufs

    def peek_buffers(self) -> Optional[List[NetBuffer]]:
        """The buffer list if one exists, else ``None`` (builds nothing)."""
        return self._buffers

    def owned_payloads(self) -> List[Payload]:
        """The payload objects this chunk holds right now: its
        descriptor, and each buffer's view if the buffer list exists.
        Builds nothing."""
        owned: List[Payload] = [self._payload]
        if self._buffers is not None:
            owned.extend(buf.payload for buf in self._buffers)
        return owned

    def segment_buffer(self, lead: List[Payload]) -> NetBuffer:
        """This whole chunk as one segment-lazy wire buffer, with the
        ``lead`` header payloads merged in front of its first segment.

        Expanding the result (:func:`repro.net.buffer.expand_segments`)
        gives the packets whole-block substitution makes from
        ``.buffers``.
        """
        data = payload = self._payload
        if lead:
            payload = concat(lead + [data])
        shape = self._shape
        return NetBuffer(payload=payload, flavor=shape.flavor,
                         segs=(payload.length - data.length, shape))

    @property
    def length(self) -> int:
        return self._payload.length

    def payload(self) -> Payload:
        """The chunk's data as one payload."""
        return self._payload

    def footprint(self, per_buffer_overhead: int,
                  per_chunk_overhead: int) -> int:
        """Memory this chunk occupies: payload + descriptor metadata.

        The descriptor overhead is what shrinks NCache's effective data
        capacity and produces the extra throughput drop in Figure 6(a).
        Counted from the shape, so asking for the footprint never
        forces the buffer list into existence.
        """
        return (self._payload.length
                + len(self._shape.segments) * per_buffer_overhead
                + per_chunk_overhead)

    def bump_generation(self) -> int:
        """Advance the chunk's generation, restamping its extent views.

        Called on FHO→LBN remap (the block's identity changed) and by
        backing-store overwrites.  Generations never affect content —
        they exist so staleness is checkable without comparing bytes.
        """
        self.generation += 1
        gen = self.generation
        self._payload = _restamp(self._payload, gen)
        if self._buffers is not None:
            for buf in self._buffers:
                buf.payload = _restamp(buf.payload, gen)
        return gen

    @property
    def pinned(self) -> bool:
        return self.pins > 0

    def pin(self) -> None:
        pin_all((self,))

    def unpin(self) -> None:
        unpin_all((self,))

    def bequeath(self, heir: "Chunk") -> None:
        """Hand this chunk's pins to ``heir``, which replaces it under
        its key: its holders' key resolves to ``heir`` from now on."""
        if self.pins:
            heir.pins += self.pins
            self.pins = 0
            self.heir = heir

    def __repr__(self) -> str:
        state = "dirty" if self.dirty else "clean"
        return (f"Chunk({self.key}, {len(self._shape.segments)} bufs, "
                f"{self.length}B, {state})")


def pin_all(chunks: Iterable[Chunk]) -> None:
    """Pin every chunk of ``chunks``, looking the sanitizer up once."""
    san = _sanitizer.active()
    for chunk in chunks:
        if san is not None:
            san.chunk_used(chunk, "pin")
        chunk.pins += 1


def unpin_all(chunks: Iterable[Chunk]) -> None:
    """Release one pin on every chunk of ``chunks``."""
    for chunk in chunks:
        while chunk.heir is not None:
            chunk = chunk.heir
        if chunk.pins <= 0:
            raise RuntimeError("unpin of unpinned chunk")
        chunk.pins -= 1
