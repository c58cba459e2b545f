"""The content oracle: which bytes may a READ of a block return?

§3.4's guarantee — "NFS clients always receive the most up-to-date
data" — made checkable under concurrency.  The oracle wraps every
client's public calls (NFS ``read``/``write``, HTTP ``get``) and keeps,
per (file, 4 KB block), the history of WRITEs: each one's bytes, the
instant its call was issued and the instant its reply was acked.  A READ
R of block b may return the bytes of WRITE W unless another WRITE of b
was issued after W's ack and acked before R was issued: that WRITE
provably reached the server after W and before R, so W is overwritten
for R.  The file's initial bytes (``FsImage.file_payload``, which
writes never change) count as a WRITE acked before time began.  Every
other WRITE stays *admissible*: concurrent writes, or one whose reply
is still in flight, leave more than one right answer, where a flat
reference file would false-alarm.

"Issued" and "acked" are positions in the oracle's own call order (the
order in which the simulation reaches the wrapped calls), so same-
instant events are ordered as they were dispatched.

:class:`ShuffledSimulator` is the search's other half: the engine with
same-instant events dispatched in a seeded random order, through the
one method every wake-up goes through (``Simulator._push``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.nfs import read_reply_data
from repro.sim.engine import Simulator
from repro.sim.rng import substream


class ContentMismatch(AssertionError):
    """A READ returned bytes no WRITE of the block's history admits."""


class ShuffledSimulator(Simulator):
    """Same-instant events in a seeded random order.

    Every heap entry is keyed ``(when, draw << 40 | seq)``: time order
    is untouched, ties break by a draw from ``substream(seed, "ties")``
    (``seq`` keeps the keys unique).  ``Event.succeed``, a resource
    grant and ``Store.get`` all wake their waiters through ``_push``,
    so every same-instant interleaving the model can produce is one of
    these orders.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._draw = substream(seed, "ties").getrandbits

    def _push(self, when, fn, args) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap,
                       (when, self._draw(20) << 40 | seq, fn, args))


class _Write:
    __slots__ = ("data", "issued", "acked", "t_issued", "t_acked")

    def __init__(self, data, issued: int, t_issued: float) -> None:
        self.data = data  # the block's bytes, as a lazy payload
        self.issued = issued
        self.acked: Optional[int] = None
        self.t_issued = t_issued
        self.t_acked: Optional[float] = None

    def describe(self) -> str:
        acked = "in flight" if self.t_acked is None \
            else f"acked {self.t_acked:.6f}s"
        return f"WRITE issued {self.t_issued:.6f}s, {acked}"


class _Block:
    __slots__ = ("writes", "floor")

    def __init__(self) -> None:
        self.writes: List[_Write] = []
        #: The latest issue position among this block's acked WRITEs: a
        #: WRITE acked before it is overwritten for a READ issued now.
        self.floor = -1


class ContentOracle:
    """Admissible-set checking of every READ reply; see module doc."""

    def __init__(self, block_size: int = 4096) -> None:
        self.block_size = block_size
        self._clock = itertools.count()
        self._blocks: Dict[Tuple, _Block] = {}
        self.reads = 0
        #: READ blocks for which more than one content was admissible.
        self.ambiguous = 0
        self.failures: List[str] = []

    # -- wiring ---------------------------------------------------------------

    def watch(self, testbed) -> "ContentOracle":
        """Wrap the public calls of every client of ``testbed``."""
        image = testbed.image
        for client in getattr(testbed, "clients", ()):
            self._wrap_nfs(client, testbed.sim, image)
        for client in getattr(testbed, "http_clients", ()):
            self._wrap_http(client, testbed.sim, image)
        return self

    def _wrap_nfs(self, client, sim, image) -> None:
        read, write = client.read, client.write

        def checked_read(fh, offset, count):
            issued = self.issue_read(image, fh.ino, offset, count)
            dgram = yield from read(fh, offset, count)
            self.check(sim, image, fh.ino, issued,
                       read_reply_data(dgram).materialize())
            return dgram

        def recorded_write(fh, offset, data):
            pending = self.issue_write(sim, image, fh.ino, offset, data)
            dgram = yield from write(fh, offset, data)
            self.ack(sim, pending, image, fh.ino, offset)
            return dgram

        client.read, client.write = checked_read, recorded_write

    def _wrap_http(self, client, sim, image) -> None:
        get = client.get

        def checked_get(path):
            inode = image.lookup(path.lstrip("/"))
            issued = self.issue_read(image, inode.ino, 0, inode.size)
            response, dgram = yield from get(path)
            whole = dgram.chain.payload().materialize()
            self.check(sim, image, inode.ino, issued,
                       whole[response.header_size:])
            return response, dgram

        client.get = checked_get

    # -- the rule: what the wrappers call, one READ or WRITE at a time -------

    def _span(self, offset: int, length: int) -> range:
        bs = self.block_size
        return range(offset // bs, (offset + length - 1) // bs + 1)

    def _block(self, image, ino: int, b: int) -> _Block:
        key = (id(image), ino, b)
        block = self._blocks.get(key)
        if block is None:
            block = self._blocks[key] = _Block()
        return block

    def issue_read(self, image, ino, offset, count
                   ) -> Tuple[int, int, List[int]]:
        """A READ of ``count`` bytes at ``offset`` was issued: the range
        it must return (clipped at end of file) and each block's floor."""
        next(self._clock)
        length = min(count, image.inode(ino).size - offset)
        return offset, length, [self._block(image, ino, b).floor
                                for b in self._span(offset, length)]

    def issue_write(self, sim, image, ino, offset, data) -> List[_Write]:
        bs = self.block_size
        if offset % bs or data.length % bs:
            raise ValueError("the oracle models block-aligned WRITEs")
        issued = next(self._clock)
        pending = []
        for i, b in enumerate(self._span(offset, data.length)):
            write = _Write(data.slice(i * bs, bs), issued, sim.now)
            self._block(image, ino, b).writes.append(write)
            pending.append(write)
        return pending

    def ack(self, sim, pending, image, ino, offset) -> None:
        acked = next(self._clock)
        for b, write in zip(itertools.count(offset // self.block_size),
                            pending):
            write.acked, write.t_acked = acked, sim.now
            block = self._block(image, ino, b)
            block.floor = max(block.floor, write.issued)

    def check(self, sim, image, ino, issued: Tuple[int, int, List[int]],
              got: bytes) -> None:
        """The reply ``got`` of the READ ``issue_read`` returned
        ``issued`` for: every block's bytes must be admissible."""
        self.reads += 1
        offset, length, floors = issued
        if len(got) != length:
            self._report(f"t={sim.now:.6f}s: READ of ino {ino} at "
                         f"{offset} returned {len(got)} bytes of {length}")
        bs = self.block_size
        inode = image.inode(ino)
        end = offset + length
        for b, floor in zip(self._span(offset, length), floors):
            lo, hi = max(offset, b * bs), min(end, (b + 1) * bs)
            piece = got[lo - offset:hi - offset]
            admissible: List[Tuple[str, Any]] = [
                (w.describe(), w.data) for w in
                self._block(image, ino, b).writes
                if w.acked is None or w.acked > floor]
            if floor < 0:
                admissible.append(("the file's initial bytes",
                                   image.file_payload(inode, b * bs, bs)))
            if len(admissible) > 1:
                self.ambiguous += 1
            if any(data.slice(lo - b * bs, hi - lo).materialize() == piece
                   for _, data in admissible):
                continue
            self._fail(sim, image, ino, b, lo - b * bs, piece, admissible)

    def _fail(self, sim, image, ino, b, start, piece, admissible) -> None:
        bs = self.block_size
        inode = image.inode(ino)
        named = "none of its WRITEs"
        candidates = [("the file's initial bytes",
                       image.file_payload(inode, b * bs, bs))] + [
            (w.describe(), w.data) for w in self._block(image, ino, b).writes]
        for what, data in candidates:
            if data.slice(start, len(piece)).materialize() == piece:
                named = what
        self._report(
            f"t={sim.now:.6f}s: READ of ino {ino} block {b} "
            f"(lbn {inode.block_lbn(b)}) returned {named}; admissible: "
            + "; ".join(what for what, _ in admissible))

    def _report(self, message: str) -> None:
        self.failures.append(message)
        raise ContentMismatch(message)
