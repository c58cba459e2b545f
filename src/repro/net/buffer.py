"""Network buffers: the sk_buff analog that NCache manipulates.

Three layers of abstraction:

* :class:`Payload` — an immutable sequence of bytes.  Large simulated
  transfers use :class:`ExtentPayload`, a lazy **extent descriptor**
  ``(source, offset, length, generation)`` over a backing store whose
  bytes are a deterministic function of ``(source, offset)`` and are only
  materialized on demand (tests do; steady-state simulation does not).
  Slice/split/concat are O(1)-per-part descriptor arithmetic — adjacent
  views of one extent re-merge in :func:`concat` — so the simulator stays
  O(events) instead of O(bytes) while remaining byte-checkable.
  ``VirtualPayload`` is the historical alias for the same class.
* :class:`NetBuffer` — one network buffer: a stack of protocol headers plus
  a payload fragment, like a Linux ``sk_buff`` (or FreeBSD ``mbuf``; see
  :class:`BufferFlavor`).
* :class:`BufferChain` — an ordered list of NetBuffers forming one message
  (an NFS reply, an iSCSI Data-In sequence, an HTTP response body...).

Physical vs logical copying: *copying* is modelled by
:meth:`Payload.physical_copy`, which returns an equal-content payload with
fresh identity.  Whether a copy is physical (charged per byte) or logical
(key-sized) is decided by :class:`repro.copymodel.accounting.CopyAccountant`;
payloads themselves are cost-free value objects.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix64(words: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; ``words`` is a uint64 array."""
    z = (words + _SPLITMIX_GAMMA).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _U64_MASK
    z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _U64_MASK
    return (z ^ (z >> np.uint64(31))) & _U64_MASK


def pattern_bytes(tag: int, offset: int, length: int) -> bytes:
    """Deterministic pseudo-random bytes for virtual payload content.

    Byte ``i`` of a virtual payload depends only on ``(tag, offset + i)``,
    so slicing and concatenation commute with materialization.
    """
    if length <= 0:
        return b""
    first_word = offset >> 3
    last_word = (offset + length - 1) >> 3
    idx = np.arange(first_word, last_word + 1, dtype=np.uint64)
    seeded = (idx * np.uint64(0x2545F4914F6CDD1D) + np.uint64(tag & 0xFFFFFFFFFFFFFFFF)) & _U64_MASK
    words = _splitmix64(seeded)
    raw = words.view(np.uint8).tobytes()
    start = offset - first_word * 8
    return raw[start:start + length]


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement 16-bit checksum of ``data``."""
    if len(data) % 2:
        data = data + b"\x00"
    if not data:
        return 0xFFFF
    arr = np.frombuffer(data, dtype=">u2")
    total = int(arr.sum(dtype=np.uint64))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class Payload:
    """Abstract immutable byte sequence.

    ``length`` is a plain attribute, not a property: payloads are
    immutable and length is read on every slice/fragment/substitute
    step, so the descriptor call would be pure overhead.
    """

    __slots__ = ("_checksum", "length")

    def __init__(self, length: int) -> None:
        self._checksum: Optional[int] = None
        self.length = length

    def materialize(self) -> bytes:
        raise NotImplementedError

    def slice(self, offset: int, length: int) -> "Payload":
        raise NotImplementedError

    def _check_slice(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.length:
            raise ValueError(
                f"slice [{offset}:{offset + length}] out of payload of "
                f"length {self.length}")

    def checksum16(self) -> int:
        """Internet checksum of the payload bytes (cached)."""
        if self._checksum is None:
            self._checksum = internet_checksum(self.materialize())
        return self._checksum

    def split(self, fragment_size: int) -> List["Payload"]:
        """Contiguous slices of at most ``fragment_size`` bytes, in order.

        Payloads are immutable, so a payload that already fits is
        returned as-is rather than sliced into an equal-content view.
        """
        if fragment_size <= 0:
            raise ValueError("fragment_size must be positive")
        total = self.length
        if total <= fragment_size:
            return [self]
        return [self.slice(offset, min(fragment_size, total - offset))
                for offset in range(0, total, fragment_size)]

    def physical_copy(self) -> "Payload":
        """A content-equal payload with fresh identity (a memcpy result)."""
        raise NotImplementedError

    # Convenience used heavily by tests.
    def same_bytes(self, other: "Payload") -> bool:
        return (self.length == other.length
                and self.materialize() == other.materialize())

    def __len__(self) -> int:
        return self.length


class BytesPayload(Payload):
    """A payload backed by real bytes (metadata, HTTP headers, small data)."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = bytes(data)
        super().__init__(len(self.data))

    def materialize(self) -> bytes:
        return self.data

    def slice(self, offset: int, length: int) -> Payload:
        self._check_slice(offset, length)
        return BytesPayload(self.data[offset:offset + length])

    def physical_copy(self) -> Payload:
        return BytesPayload(self.data)

    def __repr__(self) -> str:
        return f"BytesPayload({len(self.data)}B)"


#: Allocator for anonymous memory identities.  Negative so they can never
#: collide with backing-store identities, which reuse the (non-negative)
#: source tag.  A plain counter, not id(): ids get recycled by the
#: allocator, memory identities must not.
_anon_mem = 0


def _fresh_mem() -> int:
    """A new anonymous memory identity (the result of a modelled memcpy)."""
    global _anon_mem
    _anon_mem -= 1
    return _anon_mem


class ExtentPayload(Payload):
    """Lazy extent descriptor: a ``(source, offset, length)`` view.

    ``source`` identifies the backing data source (e.g. a hash of
    (image seed, inode)); content is :func:`pattern_bytes` of
    ``(source, offset)``.  Two bookkeeping fields ride along, neither of
    which affects content:

    * ``generation`` — bumped when the backing range is overwritten or a
      cached chunk is remapped FHO→LBN, so staleness is checkable without
      comparing bytes;
    * ``mem`` — the memory identity of the buffer holding this view.
      Views created by slice/split share their parent's ``mem``;
      :meth:`physical_copy` allocates a fresh anonymous one.  Descriptors
      straight off the backing store use the source tag itself (they
      model disk content, not a RAM buffer).  The buffer-lifecycle
      sanitizer uses ``mem`` to catch aliasing between *different* view
      objects of one buffer.
    """

    __slots__ = ("source", "offset", "generation", "mem")

    def __init__(self, source: int, offset: int, length: int,
                 generation: int = 0, mem: Optional[int] = None) -> None:
        if length < 0:
            raise ValueError("negative length")
        # Base slots set inline, as KeyedPayload does: every slice and
        # merge along the data path builds one of these.
        self._checksum = None
        self.length = length
        self.source = source
        self.offset = offset
        self.generation = generation
        self.mem = source if mem is None else mem

    def materialize(self) -> bytes:
        return pattern_bytes(self.source, self.offset, self.length)

    def slice(self, offset: int, length: int) -> Payload:
        self._check_slice(offset, length)
        return ExtentPayload(self.source, self.offset + offset, length,
                             self.generation, self.mem)

    def physical_copy(self) -> Payload:
        return ExtentPayload(self.source, self.offset, self.length,
                             self.generation, _fresh_mem())

    def with_generation(self, generation: int) -> "ExtentPayload":
        """The same view restamped at ``generation`` (same memory)."""
        return ExtentPayload(self.source, self.offset, self.length,
                             generation, self.mem)

    def same_bytes(self, other: Payload) -> bool:
        # Content-hash fast path: content is a pure function of
        # (source, offset, length), so descriptor equality decides
        # byte equality without materializing.
        if type(other) is ExtentPayload:
            return (self.source == other.source
                    and self.offset == other.offset
                    and self.length == other.length)
        return super().same_bytes(other)

    def __repr__(self) -> str:
        return (f"ExtentPayload(src={self.source:#x}, off={self.offset}, "
                f"{self.length}B, gen={self.generation})")


#: Historical name: the extent descriptor grew out of VirtualPayload and
#: keeps its constructor signature, so existing call sites are unchanged.
VirtualPayload = ExtentPayload


class CompositePayload(Payload):
    """Concatenation of payload fragments (gather, chunk merge)."""

    __slots__ = ("parts", "_starts")

    def __init__(self, parts: Sequence[Payload]) -> None:
        flat: List[Payload] = []
        starts: List[int] = []
        total = 0
        for part in parts:
            if part.length == 0:
                continue
            if isinstance(part, CompositePayload):
                for sub in part.parts:
                    flat.append(sub)
                    starts.append(total)
                    total += sub.length
            else:
                flat.append(part)
                starts.append(total)
                total += part.length
        super().__init__(total)
        self.parts = tuple(flat)
        #: cumulative part offsets, so slice() can bisect to the first
        #: affected part instead of scanning from the front (transport
        #: fragmentation slices large composites hundreds of times).
        self._starts = starts

    @classmethod
    def _from_flat(cls, parts: List[Payload]) -> "CompositePayload":
        """Internal constructor for parts already known flat and non-empty.

        slice()/split() only ever pick leaf parts (the part list is flat
        by construction and leaf slices stay leaves), so the flattening
        pass in ``__init__`` would be wasted work there.
        """
        self = object.__new__(cls)
        self._checksum = None
        starts: List[int] = []
        total = 0
        for part in parts:
            starts.append(total)
            total += part.length
        self.length = total
        self.parts = tuple(parts)
        self._starts = starts
        return self

    def materialize(self) -> bytes:
        return b"".join(p.materialize() for p in self.parts)

    def slice(self, offset: int, length: int) -> Payload:
        self._check_slice(offset, length)
        if length == 0:
            return BytesPayload(b"")
        if length == self.length:
            return self  # immutable: the full range is this payload
        picked: List[Payload] = []
        parts = self.parts
        i = bisect_right(self._starts, offset) - 1
        cursor = offset - self._starts[i]
        remaining = length
        while remaining > 0:
            part = parts[i]
            part_length = part.length
            take = part_length - cursor
            if take > remaining:
                take = remaining
            if cursor == 0 and take == part_length:
                # Whole part: payloads are immutable, share the object.
                picked.append(part)
            else:
                picked.append(part.slice(cursor, take))
            remaining -= take
            cursor = 0
            i += 1
        if len(picked) == 1:
            return picked[0]
        return CompositePayload._from_flat(picked)

    def split(self, fragment_size: int) -> List[Payload]:
        """Single-pass fragmentation.

        The generic implementation would bisect once per fragment and
        re-walk each fragment's parts building the sub-composite; this
        walks the part list exactly once.  Transport fragmentation calls
        this for every message, so the difference is measurable.
        """
        if fragment_size <= 0:
            raise ValueError("fragment_size must be positive")
        if self.length <= fragment_size:
            return [self]
        out: List[Payload] = []
        picked: List[Payload] = []
        room = fragment_size
        for part in self.parts:
            cursor = 0
            part_length = part.length
            while cursor < part_length:
                take = part_length - cursor
                if take > room:
                    take = room
                if cursor == 0 and take == part_length:
                    picked.append(part)
                else:
                    picked.append(part.slice(cursor, take))
                cursor += take
                room -= take
                if room == 0:
                    out.append(picked[0] if len(picked) == 1
                               else CompositePayload._from_flat(picked))
                    picked = []
                    room = fragment_size
        if picked:
            out.append(picked[0] if len(picked) == 1
                       else CompositePayload._from_flat(picked))
        return out

    def physical_copy(self) -> Payload:
        # A physical copy gathers the parts into one fresh buffer, so
        # contiguous same-source extent parts collapse to one descriptor
        # over that buffer (they now genuinely share memory).
        mem = _fresh_mem()
        out: List[Payload] = []
        for part in self.parts:
            if type(part) is ExtentPayload:
                copied: Payload = ExtentPayload(
                    part.source, part.offset, part.length,
                    part.generation, mem)
            else:
                copied = part.physical_copy()
            _append_merged(out, copied)
        if len(out) == 1:
            return out[0]
        return CompositePayload._from_flat(out)

    def __repr__(self) -> str:
        return f"CompositePayload({len(self.parts)} parts, {self.length}B)"


class JunkPayload(Payload):
    """Placeholder content of a given length.

    This is what the *baseline* (ideal zero-copy) servers send on the wire
    — §5.1: "the packets that are actually sent back to clients contain
    only random bits as payload" — and what key-carrying placeholder blocks
    contain before NCache substitutes the real data.
    """

    __slots__ = ()

    def __init__(self, length: int) -> None:
        if length < 0:
            raise ValueError("negative length")
        super().__init__(length)

    def materialize(self) -> bytes:
        return b"\xAA" * self.length

    def slice(self, offset: int, length: int) -> Payload:
        self._check_slice(offset, length)
        return JunkPayload(length)

    def physical_copy(self) -> Payload:
        return JunkPayload(self.length)

    def __repr__(self) -> str:
        return f"JunkPayload({self.length}B)"


class PlaceholderPayload(JunkPayload):
    """Marker base for payloads that stand in for logically-copied data.

    The network stack skips software checksumming for placeholder content
    (the real checksum is inherited at substitution time), and the NCache
    TX hook recognizes placeholders as substitution targets.  The concrete
    key-carrying subclass lives in :mod:`repro.core.keys` to keep the
    substrate free of NCache concepts.
    """

    __slots__ = ()


def _append_merged(out: List[Payload], part: Payload) -> None:
    """Append ``part`` to ``out``, re-merging adjacent extent views.

    Two extent descriptors merge when they are contiguous views of the
    same source at the same generation in the same memory — the inverse
    of :meth:`ExtentPayload.slice`, so split-then-concat round-trips to
    a single descriptor instead of accreting composite parts.
    """
    prev = out[-1] if out else None
    if (type(part) is ExtentPayload and type(prev) is ExtentPayload
            and prev.source == part.source
            and prev.mem == part.mem
            and prev.generation == part.generation
            and prev.offset + prev.length == part.offset):
        out[-1] = ExtentPayload(prev.source, prev.offset,
                                prev.length + part.length,
                                prev.generation, prev.mem)
    else:
        out.append(part)


def concat(parts: Iterable[Payload]) -> Payload:
    """Concatenate payloads, collapsing single/empty/mergeable cases."""
    flat: List[Payload] = []
    for part in parts:
        if part.length == 0:
            continue
        # Only an extent that follows something can merge; placeholders,
        # bytes and junk go straight in.
        if isinstance(part, CompositePayload):
            for sub in part.parts:
                if flat and type(sub) is ExtentPayload:
                    _append_merged(flat, sub)
                else:
                    flat.append(sub)
        elif flat and type(part) is ExtentPayload:
            _append_merged(flat, part)
        else:
            flat.append(part)
    if not flat:
        return BytesPayload(b"")
    if len(flat) == 1:
        return flat[0]
    return CompositePayload._from_flat(flat)


def flatten_payload(payload: Payload) -> Sequence[Payload]:
    """Leaf payloads of ``payload``, in order.

    Nothing recurses: a composite's parts are leaves already —
    ``CompositePayload.__init__`` flattens, and ``_from_flat`` is only
    ever handed leaves.
    """
    if isinstance(payload, CompositePayload):
        return payload.parts
    return (payload,) if payload.length else ()


def apply_discipline(payload: Payload, discipline) -> Payload:
    """Transform a payload according to a copy discipline.

    * PHYSICAL — a fresh equal-content payload (the memcpy result);
    * LOGICAL — the same object (only a key moved);
    * ZERO — junk of equal length (the copy statement was deleted).

    ``discipline`` is a :class:`repro.copymodel.accounting.CopyDiscipline`;
    the comparison is by value name to keep this module dependency-free.
    """
    name = getattr(discipline, "name", str(discipline))
    if name == "PHYSICAL":
        return payload.physical_copy()
    if name == "LOGICAL":
        return payload
    if name == "ZERO":
        return JunkPayload(payload.length)
    raise ValueError(f"unknown discipline {discipline!r}")


class BufferFlavor(Enum):
    """Which kernel's network-buffer structure we are imitating.

    The paper's §4.2 notes that porting from Linux (``sk_buff``) to FreeBSD
    (``mbuf``) requires no structural change because both support
    variable-size buffer chains; nothing in the model depends on the flavor.
    """

    SK_BUFF = "sk_buff"
    MBUF = "mbuf"


class SegmentShape:
    """The geometry of one train of wire segments, interned.

    ``segments`` is ``((nbytes, csum_known), ...)``: one pair per wire
    segment in order — how many data bytes it carries and whether its
    transport checksum is already computed; ``flavor`` is the buffer
    structure the segments ride in and ``length`` the byte total.  A
    cached chunk is one payload plus one shape (:mod:`repro.core.chunk`),
    and a segment-lazy :class:`NetBuffer` names its train by one.

    Instances come from :meth:`of` / :meth:`uniform`, which return the
    one object per geometry: equal shapes are identical (``is``), and a
    cache of a hundred thousand blocks holds a handful of them.  The
    tables grow with the number of distinct geometries (fragment sizes,
    header offsets, block sizes), never with traffic.
    """

    __slots__ = ("segments", "flavor", "length")

    _interned: Dict[tuple, SegmentShape] = {}
    _uniform: Dict[tuple, SegmentShape] = {}

    def __init__(self, segments: Tuple[Tuple[int, bool], ...],
                 flavor: BufferFlavor) -> None:
        self.segments = segments
        self.flavor = flavor
        self.length = sum(nbytes for nbytes, _ in segments)

    @classmethod
    def of(cls, segments: Tuple[Tuple[int, bool], ...],
           flavor: BufferFlavor) -> SegmentShape:
        """The interned shape with these ``segments`` and ``flavor``."""
        key = (segments, flavor)
        shape = cls._interned.get(key)
        if shape is None:
            if not segments or any(nbytes <= 0 for nbytes, _ in segments):
                raise ValueError(
                    "a shape needs at least one segment, each of at "
                    "least one byte")
            shape = cls._interned[key] = cls(segments, flavor)
        return shape

    @classmethod
    def uniform(cls, length: int, fragment_size: int, csum_known: bool,
                flavor: BufferFlavor) -> SegmentShape:
        """``length`` bytes cut every ``fragment_size`` (the last segment
        takes the remainder), every segment's checksum ``csum_known`` —
        what ``chain_from_payload`` makes of a payload."""
        key = (length, fragment_size, csum_known, flavor)
        shape = cls._uniform.get(key)
        if shape is None:
            if fragment_size <= 0:
                raise ValueError("fragment_size must be positive")
            shape = cls._uniform[key] = cls.of(
                tuple((min(fragment_size, length - offset), csum_known)
                      for offset in range(0, length, fragment_size)),
                flavor)
        return shape

    def __repr__(self) -> str:
        return (f"SegmentShape({len(self.segments)} segments, "
                f"{self.length}B, {self.flavor.value})")


class NetBuffer:
    """One network buffer: header stack + payload fragment.

    ``headers`` is ordered outermost-first (Ethernet, IP, UDP/TCP, RPC...).
    ``checksum`` caches the transport checksum covering this buffer's
    payload; NCache *inherits* it instead of recomputing (§1).

    A slotted hand-rolled class rather than a dataclass: the warm-start
    path and transport fragmentation allocate hundreds of thousands of
    these, and the dataclass ``__init__`` was the largest line item in
    the grid's heap profile.  ``csum_known`` says whether the transport
    checksum for this fragment is already computed.

    ``segs`` makes the buffer **segment-lazy** (the ``gso_segs`` idea):
    ``(lead, shape)`` says this one descriptor stands for the train of
    wire segments :class:`SegmentShape` ``shape`` describes — the first
    also carrying the ``lead`` header bytes in front of its data — that
    nobody has needed to look at one by one yet.  Frame counts come
    from :attr:`n_segments`; :func:`expand_segments` builds the train
    for a consumer that does look (DESIGN.md §11).
    """

    __slots__ = ("payload", "headers", "flavor", "checksum", "csum_known",
                 "segs")

    def __init__(self, payload: Payload,
                 headers: Optional[List[object]] = None,
                 flavor: BufferFlavor = BufferFlavor.SK_BUFF,
                 checksum: Optional[int] = None,
                 csum_known: bool = False,
                 segs: Optional[Tuple[int, SegmentShape]] = None) -> None:
        self.payload = payload
        self.headers: List[object] = [] if headers is None else headers
        self.flavor = flavor
        self.checksum = checksum
        self.csum_known = csum_known
        self.segs = segs

    @property
    def payload_bytes(self) -> int:
        return self.payload.length

    @property
    def n_segments(self) -> int:
        """Wire segments this buffer stands for (1 unless segment-lazy)."""
        segs = self.segs
        return 1 if segs is None else len(segs[1].segments)

    @property
    def header_bytes(self) -> int:
        return sum(h.wire_size() for h in self.headers)

    @property
    def wire_bytes(self) -> int:
        return self.header_bytes + self.payload_bytes

    def __repr__(self) -> str:
        return (f"NetBuffer({self.payload!r}, {len(self.headers)} headers, "
                f"{self.flavor.value})")


class BufferChain:
    """An ordered list of NetBuffers forming one message."""

    __slots__ = ("buffers",)

    def __init__(self, buffers: Optional[Iterable[NetBuffer]] = None) -> None:
        self.buffers: List[NetBuffer] = list(buffers) if buffers else []

    def append(self, buf: NetBuffer) -> None:
        self.buffers.append(buf)

    def extend(self, bufs: Iterable[NetBuffer]) -> None:
        self.buffers.extend(bufs)

    @property
    def payload_bytes(self) -> int:
        return sum(b.payload_bytes for b in self.buffers)

    @property
    def wire_bytes(self) -> int:
        return sum(b.wire_bytes for b in self.buffers)

    def payload(self) -> Payload:
        """The chain's full payload as a single (composite) payload."""
        return concat(b.payload for b in self.buffers)

    def __iter__(self) -> Iterator[NetBuffer]:
        return iter(self.buffers)

    def __len__(self) -> int:
        return len(self.buffers)

    def __repr__(self) -> str:
        return f"BufferChain({len(self.buffers)} bufs, {self.payload_bytes}B payload)"


def expand_segments(buffers: List[NetBuffer]) -> List[NetBuffer]:
    """``buffers`` with every segment-lazy buffer expanded to its train.

    The one place per-segment buffers of a ``segs`` descriptor are made:
    the payload behind the ``lead`` bytes is sliced by the shape.  A
    data segment takes the shape's flavor and its own checksum state
    (they were the cached chunk's); the segment that carries the
    ``lead`` header bytes is a fresh descriptor with no known checksum
    — its bytes are not the cached fragment's.  Plain buffers pass
    through as the same objects.
    """
    out: List[NetBuffer] = []
    for buf in buffers:
        segs = buf.segs
        if segs is None:
            out.append(buf)
            continue
        lead, shape = segs
        payload = buf.payload
        flavor = shape.flavor
        segments = shape.segments
        offset = lead
        if lead:
            offset += segments[0][0]
            out.append(NetBuffer(payload=payload.slice(0, offset),
                                 flavor=flavor))
            segments = segments[1:]
        for nbytes, known in segments:
            out.append(NetBuffer(payload=payload.slice(offset, nbytes),
                                 flavor=flavor, csum_known=known))
            offset += nbytes
    return out


def chain_from_payload(payload: Payload, fragment_size: int,
                       headers_factory=None,
                       flavor: BufferFlavor = BufferFlavor.SK_BUFF) -> BufferChain:
    """Split ``payload`` into a chain of <=``fragment_size`` buffers.

    ``headers_factory(index, fragment_payload)`` may supply a header stack
    per buffer; default is headerless fragments.  The factory must return
    a fresh list per call — it is stored on the buffer without copying.
    """
    if fragment_size <= 0:
        raise ValueError("fragment_size must be positive")
    chain = BufferChain()
    fragments = [payload] if payload.length == 0 else payload.split(fragment_size)
    for index, frag in enumerate(fragments):
        headers = headers_factory(index, frag) if headers_factory else []
        chain.append(NetBuffer(payload=frag, headers=headers, flavor=flavor))
    return chain
