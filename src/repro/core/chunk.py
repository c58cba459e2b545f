"""Cache chunks: fixed-size data units made of lists of network buffers.

"Physically the network-centric cache consists of fixed-sized data chunks,
each of which consists of a list of network buffers" (§3.4).  A chunk's
buffers are the packets exactly as they arrived (iSCSI Data-In segments or
NFS write request fragments), headers and cached checksums included — that
is what makes zero-work retransmission and checksum inheritance possible.

Chunks come in two physically-equivalent representations:

* **buffer-list** (the classic constructor) — holds the arrived
  :class:`NetBuffer` list; the merged payload is derived lazily.
* **compact** (:meth:`Chunk.from_payload`) — holds one merged payload
  descriptor plus the fragment size.  Cache warm-up uses this form: a
  warmed cache of a hundred thousand blocks is two payload descriptors
  per chunk instead of ~3 buffers + ~3 payload views each, which is
  most of the grid's peak-RSS savings.  A compact chunk stays compact
  when it is served: whole-block substitution sends it as one
  segment-lazy descriptor (:meth:`Chunk.segment_buffer`) and counts
  its packets arithmetically.  The buffer list is built — once, by
  ``.buffers``, and then kept, because the stack mutates buffer
  checksum state and that mutation *is* the checksum-inheritance
  mechanism — only for an observer of individual buffers: a sender
  without checksum offload, ``inherit_checksums=False``, a
  partial-range substitution (DESIGN.md §11 lists them).

Both report identical ``length``/``footprint`` and produce identical
buffer lists, so simulation results do not depend on the representation.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..check import sanitizer as _sanitizer
from ..net.buffer import (BufferFlavor, CompositePayload, ExtentPayload,
                          NetBuffer, Payload, concat, expand_segments)
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
    """One fixed-size cached block as a list of network buffers."""

    __slots__ = ("key", "dirty", "pins", "lbn_hint", "generation",
                 "cache_handle",
                 "_payload", "_buffers", "_frag", "_flavor", "_csum_known",
                 "_length", "__weakref__")

    def __init__(self, key: ChunkKey, buffers: List[NetBuffer],
                 dirty: bool = False,
                 lbn_hint: Optional[LbnKey] = None) -> None:
        if not buffers:
            raise ValueError("chunk needs at least one buffer")
        self.key = key
        self._buffers: Optional[List[NetBuffer]] = buffers
        self.dirty = dirty
        self.pins = 0
        #: For dirty FHO chunks: where this block will land on disk, used
        #: when NCache itself must write the chunk back (§3.4).
        self.lbn_hint = lbn_hint
        #: Bumped when the backing data is overwritten or the chunk is
        #: remapped FHO→LBN; stamped onto the chunk's extent views.
        self.generation = 0
        #: The store's eviction-kernel handle while resident, else None.
        self.cache_handle: Optional[int] = None
        self._payload: Optional[Payload] = None
        self._frag = 0
        self._flavor = BufferFlavor.SK_BUFF
        self._csum_known = False
        self._length: Optional[int] = None

    @classmethod
    def from_payload(cls, key: ChunkKey, payload: Payload,
                     fragment_size: int, *,
                     flavor: BufferFlavor = BufferFlavor.SK_BUFF,
                     csum_known: bool = True,
                     dirty: bool = False,
                     lbn_hint: Optional[LbnKey] = None) -> "Chunk":
        """A compact chunk: payload descriptor + fragment size, no buffers.

        Equivalent to caching ``chain_from_payload(payload, fragment_size)``
        with every buffer's checksum state set to ``csum_known`` — the
        buffer list is built (once, then kept) on first ``.buffers``
        access, which only an observer of individual buffers makes.
        Warm-started caches are built this way so that chunks never grow
        an object graph, served or not.
        """
        if fragment_size <= 0:
            raise ValueError("fragment_size must be positive")
        if payload.length == 0:
            raise ValueError("chunk needs at least one byte")
        self = cls.__new__(cls)
        self.key = key
        self._buffers = None
        self.dirty = dirty
        self.pins = 0
        self.lbn_hint = lbn_hint
        self.generation = 0
        self.cache_handle = None
        self._payload = payload
        self._frag = fragment_size
        self._flavor = flavor
        self._csum_known = csum_known
        self._length = None
        return self

    @property
    def buffers(self) -> List[NetBuffer]:
        """The chunk's network buffers (built on demand for compact chunks).

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
        """The payload objects this chunk holds right now: the merged
        descriptor if there is one, each buffer's view if the buffer
        list exists.  Builds neither."""
        owned: List[Payload] = []
        if self._payload is not None:
            owned.append(self._payload)
        if self._buffers is not None:
            owned.extend(buf.payload for buf in self._buffers)
        return owned

    def segment_buffer(self, lead: List[Payload]) -> Optional[NetBuffer]:
        """This whole chunk as one segment-lazy wire buffer, with the
        ``lead`` header payloads merged in front of its first segment.

        ``None`` for a chunk that owns a buffer list: those buffers
        carry checksum state the descriptor cannot stand for.  Expanding
        the result (:func:`repro.net.buffer.expand_segments`) gives the
        packets whole-block substitution makes from ``.buffers``.
        """
        if self._buffers is not None:
            return None
        data = payload = self._payload
        if lead:
            payload = concat(lead + [data])
        return NetBuffer(payload=payload, flavor=self._flavor,
                         csum_known=self._csum_known,
                         segs=(payload.length - data.length, self._frag))

    def _n_buffers(self) -> int:
        if self._buffers is not None:
            return len(self._buffers)
        return -(-self._payload.length // self._frag)

    @property
    def length(self) -> int:
        if self._payload is not None:
            return self._payload.length
        # Buffer lists are fixed at construction (restamps preserve
        # lengths), so the sum is computed once and kept.
        n = self._length
        if n is None:
            n = self._length = sum(b.payload_bytes for b in self._buffers)
        return n

    def payload(self) -> Payload:
        """The chunk's data as one payload (cached)."""
        if self._payload is None:
            self._payload = concat(b.payload for b in self._buffers)
        return self._payload

    def footprint(self, per_buffer_overhead: int,
                  per_chunk_overhead: int) -> int:
        """Memory this chunk occupies: payload + descriptor metadata.

        The descriptor overhead is what shrinks NCache's effective data
        capacity and produces the extra throughput drop in Figure 6(a).
        Counted from the fragment arithmetic for compact chunks, so
        asking for the footprint never forces the buffer list into
        existence.
        """
        return (self.length
                + self._n_buffers() * per_buffer_overhead
                + per_chunk_overhead)

    def bump_generation(self) -> int:
        """Advance the chunk's generation, restamping its extent views.

        Called on FHO→LBN remap (the block's identity changed) and by
        backing-store overwrites.  Generations never affect content —
        they exist so staleness is checkable without comparing bytes.
        """
        self.generation += 1
        gen = self.generation
        if self._payload is not None:
            self._payload = _restamp(self._payload, gen)
        if self._buffers is not None:
            for buf in self._buffers:
                buf.payload = _restamp(buf.payload, gen)
        return gen

    @property
    def pinned(self) -> bool:
        return self.pins > 0

    def pin(self) -> None:
        san = _sanitizer.active()
        if san is not None:
            san.chunk_used(self, "pin")
        self.pins += 1

    def unpin(self) -> None:
        if self.pins <= 0:
            raise RuntimeError("unpin of unpinned chunk")
        self.pins -= 1

    def __repr__(self) -> str:
        state = "dirty" if self.dirty else "clean"
        return (f"Chunk({self.key}, {self._n_buffers()} bufs, "
                f"{self.length}B, {state})")
