"""VFS: read / write / sendfile over the buffer cache and a block device.

This is where the server-side data path copies live, so the copy counts of
the paper's Table 2 fall out of this module plus the socket layer:

* ``cache_fill`` — block-device payload → buffer cache (read miss, +1);
* ``fs_read``    — buffer cache → daemon reply buffer (NFS read, +1);
* ``cache_write``— received payload → buffer cache (NFS write, +1);
* the socket-boundary ``sock_tx`` copy is charged by the network stack.

``sendfile`` skips ``fs_read`` (data goes straight from the cache to the
socket), which is why kHTTPd's read path has one copy fewer than the NFS
server's (Table 2).

Every movement honours the VFS's :class:`CopyDiscipline` — PHYSICAL for
the original servers, LOGICAL under NCache, ZERO for the ideal baseline —
except metadata, which always moves physically (§3.3).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Protocol

from ..cache import CacheStallError
from ..copymodel.accounting import CopyDiscipline
from ..net.buffer import Payload, apply_discipline, concat
from ..net.host import Host
from ..sim.engine import Event, SimulationError
from .buffer_cache import BufferCache, CacheEntry
from .image import FsImage, Inode


class BlockDevice(Protocol):
    """What the VFS needs from the storage below it."""

    def read(self, lbn: int, nblocks: int, is_metadata: bool = False
             ) -> Generator[Event, Any, Payload]:
        ...

    def write(self, lbn: int, payload: Payload, is_metadata: bool = False
              ) -> Generator[Event, Any, None]:
        ...


class VFS:
    """One host's filesystem layer."""

    def __init__(self, host: Host, image: FsImage, cache: BufferCache,
                 blockdev: BlockDevice,
                 discipline: CopyDiscipline = CopyDiscipline.PHYSICAL
                 ) -> None:
        self.host = host
        self.image = image
        self.cache = cache
        self.blockdev = blockdev
        self.discipline = discipline
        self.block_size = image.block_size
        #: NCache's three hooks (None without it).  ``lbn_annotator(block,
        #: lbn)`` is applied to each data block a fill or a write stores:
        #: it stamps the block's LBN key onto key-carrying placeholders so
        #: post-remap lookups succeed ("some NFS read replies may contain
        #: both an FHO key and an LBN key", §3.4), and returns ``None``
        #: for a written block whose chunk is gone: no page goes in.
        #: ``pin_keys(payload)`` pins the chunks behind the keys of a
        #: reply, a flush or a page a fill holds; ``unpin_keys(payload)``
        #: releases the pins a fill's payloads carry.
        self.lbn_annotator: Optional[
            Callable[[Payload, int], Optional[Payload]]] = None
        self.pin_keys: Optional[Callable[[Payload], Optional[Payload]]] = None
        self.unpin_keys: Optional[Callable[[Payload], None]] = None
        #: In-flight fills ``(first lbn, nblocks, claimed, pins)``: a
        #: writeback starting meanwhile claims its page for the fill.
        self._fills: Dict[int, tuple] = {}
        #: Pages under writeback -> the event their bytes on disk fire.
        self._writing: Dict[CacheEntry, Event] = {}

    # ------------------------------------------------------------------
    # Regular data path
    # ------------------------------------------------------------------

    def read(self, inode: Inode, offset: int, length: int
             ) -> Generator[Event, Any, Payload]:
        """Read a byte range into a (virtual) daemon buffer.

        Performs the ``fs_read`` move: buffer cache → reply buffer.
        """
        assembled, nblocks = yield from self._cached_range(
            inode, offset, length)
        yield from self.host.acct.move(
            self.discipline, assembled.length, "fs_read", nkeys=nblocks)
        return apply_discipline(assembled, self.discipline)

    def sendfile_payload(self, inode: Inode, offset: int, length: int
                         ) -> Generator[Event, Any, Payload]:
        """The sendfile path: cache → socket directly, no ``fs_read`` copy.

        Returns the cache-resident payload; the caller hands it to the
        socket layer, which performs the single data movement.
        """
        assembled, _ = yield from self._cached_range(inode, offset, length)
        return assembled

    def write(self, inode: Inode, offset: int, payload: Payload
              ) -> Generator[Event, Any, None]:
        """Write a block-aligned payload into the cache (dirty blocks).

        Performs the ``cache_write`` move: received buffers → page cache.
        Blocks already present are *overwritten* in place (the cheap write
        path of Table 2); absent blocks are inserted dirty.
        """
        bs = self.block_size
        if offset % bs or payload.length % bs:
            raise ValueError(
                f"unaligned write (offset={offset}, len={payload.length}); "
                "the simulated NFS server issues block-aligned writes")
        first = offset // bs
        nblocks = payload.length // bs
        if first + nblocks > inode.nblocks:
            raise ValueError("write beyond file extent")
        yield from self.host.acct.compute(
            nblocks * self.host.costs.cache_lookup_ns, "fs.lookup")
        yield from self.host.acct.move(
            self.discipline, payload.length, "cache_write", nkeys=nblocks)
        stored = apply_discipline(payload, self.discipline)
        for i in range(nblocks):
            lbn = inode.block_lbn(first + i)
            entry = self.cache.peek(lbn)
            if entry is None:
                yield from self._evict_for(1)
            # Checked after the eviction, which may yield.
            block_payload = self._storable(stored.slice(i * bs, bs), lbn)
            if block_payload is None:
                # The block's chunk was evicted, and so written back to
                # this LBN, before its page went in: store no page, and
                # drop an older one.
                self.cache.invalidate(lbn)
            elif entry is not None:
                entry.payload = block_payload
                entry.dirty = True
                self.cache.lookup(lbn)  # LRU touch + hit accounting
            else:
                self.cache.insert(lbn, block_payload, dirty=True)
                self.cache.counters.add("bcache.write_alloc")

    # ------------------------------------------------------------------
    # Metadata path
    # ------------------------------------------------------------------

    def read_inode_metadata(self, ino: int) -> Generator[Event, Any, None]:
        """Bring the inode-table block for ``ino`` into the cache."""
        yield from self._ensure_metadata_block(
            self.image.inode_table_lbn(ino))

    def read_dir_metadata(self, name: str) -> Generator[Event, Any, None]:
        """Bring the directory block holding ``name`` into the cache."""
        yield from self._ensure_metadata_block(
            self.image.dir_block_lbn(name))

    def _ensure_metadata_block(self, lbn: int
                               ) -> Generator[Event, Any, None]:
        yield from self.host.acct.compute(
            self.host.costs.cache_lookup_ns, "fs.lookup")
        if self.cache.lookup(lbn) is not None:
            return
        payload = yield from self.blockdev.read(lbn, 1, is_metadata=True)
        # Metadata is always physically copied into the cache (§3.3).
        yield from self.host.acct.physical_copy(
            payload.length, "cache_fill", is_metadata=True)
        yield from self._evict_for(1)
        self.cache.insert(lbn, payload.physical_copy(),
                          is_metadata=True)

    # ------------------------------------------------------------------
    # File lifecycle
    # ------------------------------------------------------------------

    def truncate(self, inode: Inode, new_size: int
                 ) -> Generator[Event, Any, None]:
        """Shrink a file and invalidate cached pages beyond the new end.

        Dirty pages past the truncation point are discarded, not flushed —
        their data is gone by definition.
        """
        yield from self.host.acct.compute(
            self.host.costs.nfs_meta_op_ns, "fs.truncate")
        old_blocks = inode.nblocks
        self.image.truncate(inode, new_size)
        keep = self.image.blocks_for(new_size) if new_size else 0
        for b in range(keep, old_blocks):
            self.cache.invalidate(inode.block_lbn(b))
        yield from self.read_inode_metadata(inode.ino)

    def remove(self, inode: Inode) -> Generator[Event, Any, None]:
        """Drop every cached page of a removed file (no writeback)."""
        yield from self.host.acct.compute(
            self.host.costs.nfs_meta_op_ns, "fs.remove")
        for b in range(inode.nblocks):
            self.cache.invalidate(inode.block_lbn(b))
        yield from self.read_dir_metadata(inode.name or "")
        yield from self.read_inode_metadata(inode.ino)

    # ------------------------------------------------------------------
    # Writeback
    # ------------------------------------------------------------------

    def flush_lbn(self, lbn: int) -> Generator[Event, Any, bool]:
        """Write one dirty cached block back to storage; True if flushed."""
        entry = self.cache.peek(lbn)
        if entry is None or not entry.dirty:
            return False
        yield from self.write_back_entry(entry)
        return True

    def flush_oldest(self, max_blocks: int) -> Generator[Event, Any, int]:
        """Flush up to ``max_blocks`` of the oldest dirty blocks.

        Contiguous dirty blocks are clustered into one block-device write
        each (kupdated-style writeback clustering), so a burst of dirty
        data costs one storage seek per extent instead of one per block.
        """
        victims = sorted(self.cache.dirty_lbns()[:max_blocks])
        flushed = 0
        run: List[int] = []
        for lbn in victims:
            if run and lbn != run[-1] + 1:
                flushed += yield from self._flush_run(run)
                run = []
            run.append(lbn)
        if run:
            flushed += yield from self._flush_run(run)
        return flushed

    def _flush_run(self, lbns: List[int]) -> Generator[Event, Any, int]:
        """Write one contiguous run of dirty blocks as a single extent."""
        entries = []
        for lbn in lbns:
            entry = self.cache.peek(lbn)
            if entry is not None and entry.dirty \
                    and entry not in self._writing:
                entries.append(entry)
        if not entries:
            return 0
        if len(entries) < len(lbns):
            # A block went clean/evicted meanwhile; fall back per block.
            for entry in entries:
                yield from self.write_back_entry(entry)
            return len(entries)
        yield from self._write_back(entries, lbns[0])
        return len(entries)

    def write_back_entry(self, entry: CacheEntry
                         ) -> Generator[Event, Any, None]:
        """Write one resident dirty page back (or wait for the writeback
        in flight)."""
        if self.cache.peek(entry.lbn) is entry and entry.dirty:
            busy = self._writing.get(entry)
            if busy is not None:
                yield busy  # one writeback per page at a time
            else:
                yield from self._write_back([entry], entry.lbn)

    def _write_back(self, entries: List[CacheEntry], lbn: int
                    ) -> Generator[Event, Any, None]:
        """Write resident dirty pages (contiguous from ``lbn``) as one
        extent.  Each stays resident and page-locked until its bytes are
        on disk, and is clean then unless it was written meanwhile."""
        payloads = [e.payload for e in entries]
        payload = self._leaving(concat(payloads), lbn)
        done = self.host.sim.event()
        for entry in entries:
            entry.pins += 1
            self._writing[entry] = done
            self.hold_for_fills(entry.lbn, entry.payload, entry)
        self.cache.counters.add("bcache.writeback", len(entries))
        try:
            yield from self.blockdev.write(
                lbn, payload, is_metadata=entries[0].is_metadata)
        finally:
            for entry, written in zip(entries, payloads):
                entry.pins -= 1
                del self._writing[entry]
                if entry.payload is written:
                    entry.dirty = False
            done.succeed()

    def hold_for_fills(self, lbn: int, payload: Payload,
                       page: Optional[CacheEntry] = None) -> None:
        """A writeback of ``payload`` to ``lbn`` starts — of an FS
        ``page``, or below the FS cache.  The bytes a fill in flight
        over the block reads may predate it: the fill holds the chunks
        behind ``payload`` and claims the page, which it stores instead
        if the page is gone by then."""
        for first, n, claimed, pins in self._fills.values():
            if first <= lbn < first + n:
                pins.append(self._leaving(payload, lbn))
                if page is not None:
                    claimed[lbn] = page

    def _evict_for(self, nblocks: int) -> Generator[Event, Any, None]:
        """Make room: write back first, then evict clean.

        ``make_room`` hands back a dirty victim still resident, and the
        next call evicts it once written back.  When every page is
        locked, some only for their writeback, wait for the oldest to
        land.  Each call re-checks the room a writeback's yield let a
        concurrent request take.
        """
        while True:
            try:
                victims = self.cache.make_room(nblocks)
            except CacheStallError:
                if not self._writing:
                    raise
                yield next(iter(self._writing.values()))
                continue
            if not victims:
                return
            for victim in victims:
                yield from self.write_back_entry(victim)

    # ------------------------------------------------------------------
    # Shared read machinery
    # ------------------------------------------------------------------

    def _cached_range(self, inode: Inode, offset: int, length: int
                      ) -> Generator[Event, Any, tuple]:
        """Ensure [offset, offset+length) is cached; return its payload.

        Misses are batched into contiguous block-device reads; what the
        fill holds stays held until the reply holds its own keys.
        """
        if length <= 0:
            raise ValueError("read length must be positive")
        if offset < 0 or offset + length > inode.size:
            raise ValueError(
                f"read [{offset}, {offset + length}) beyond EOF "
                f"({inode.size}) of inode {inode.ino}")
        bs = self.block_size
        first = offset // bs
        last = (offset + length - 1) // bs
        nblocks = last - first + 1
        yield from self.host.acct.compute(
            nblocks * self.host.costs.cache_lookup_ns, "fs.lookup")

        # Probe every block first (recency touch + hit/miss accounting).
        # Nothing can evict between here and use unless a fill yields, so
        # the all-present steady state locks and pins nothing.
        entries = [self.cache.lookup(inode.block_lbn(b))
                   for b in range(first, last + 1)]
        locked: List[CacheEntry] = []  # the pages a fill page-locked
        pins: List[Payload] = []  # the payloads carrying its chunk pins
        try:
            if None in entries:
                yield from self._fill_missing(inode, first, entries,
                                              locked, pins)
            whole = concat([e.payload for e in entries])
            held = self._leaving(whole.slice(offset - first * bs, length),
                                 entries[0].lbn)
        finally:
            for entry in locked:
                if self.cache.peek(entry.lbn) is entry:
                    self.cache.unpin(entry.lbn)
            if self.unpin_keys is not None:
                for payload in pins:
                    self.unpin_keys(payload)
        return held, nblocks

    def _fill_missing(self, inode: Inode, first: int,
                      entries: List[Optional[CacheEntry]],
                      locked: List[CacheEntry], pins: List[Payload]
                      ) -> Generator[Event, Any, None]:
        """Fill the blocks ``entries`` (from block ``first`` on) lacks,
        in one pass, and put their pages in it.

        Each page the read returns is page-locked and the chunks behind
        it pinned (``locked``, ``pins``), so neither the request's later
        fills nor a reclaim drops it; a filled block's chunk is pinned
        from the RX hook or L2 hit on, so its page goes in.
        """
        runs: List[List[int]] = []  # [first index, count] of missing runs
        for i, entry in enumerate(entries):
            if entry is not None:
                self._lock(entry, locked, pins)
            elif i and entries[i - 1] is None:
                runs[-1][1] += 1
            else:
                runs.append([i, 1])
        for i, count in runs:
            entries[i:i + count] = yield from self._fill_blocks(
                inode, first + i, count, locked, pins)

    def _lock(self, entry: CacheEntry, locked: List[CacheEntry],
              pins: List[Payload]) -> None:
        """Page-lock a resident page the read returns and pin the chunks
        behind it."""
        self.cache.pin(entry.lbn)
        locked.append(entry)
        pins.append(self._leaving(entry.payload, entry.lbn))

    def _fill_blocks(self, inode: Inode, first_block: int, nblocks: int,
                     locked: List[CacheEntry], pins: List[Payload]
                     ) -> Generator[Event, Any, List[CacheEntry]]:
        """Read ``nblocks`` into the cache, leaving a block resident by
        then and storing a claimed page (:meth:`hold_for_fills`) for
        its block: either is as new.  Returns the run's pages, locked."""
        lbn = inode.block_lbn(first_block)
        claimed: Dict[int, CacheEntry] = {}
        self._fills[id(claimed)] = (lbn, nblocks, claimed, pins)
        try:
            yield from self.host.acct.compute(
                self.host.costs.blockio_ns, "fs.blockio")
            payload = yield from self.blockdev.read(lbn, nblocks,
                                                    is_metadata=False)
            pins.append(payload)  # it carries the chunks' pins
            yield from self.host.acct.move(
                self.discipline, payload.length, "cache_fill", nkeys=nblocks)
            stored = apply_discipline(payload, self.discipline)
            yield from self._evict_for(nblocks)
        finally:
            del self._fills[id(claimed)]
        bs = self.block_size
        pages = []
        for i in range(nblocks):
            entry = self.cache.peek(lbn + i)
            if entry is not None:
                self._lock(entry, locked, pins)
            else:
                page = claimed.get(lbn + i)
                block_payload = page.payload if page is not None else \
                    self._storable(stored.slice(i * bs, bs), lbn + i)
                if block_payload is None:
                    raise SimulationError(
                        f"block {first_block + i} of inode {inode.ino} "
                        "missing after its fill")
                # Its chunks are pinned already, by ``payload`` or a claim.
                entry = self.cache.insert(lbn + i, block_payload)
                self.cache.pin(lbn + i)
                locked.append(entry)
            pages.append(entry)
        return pages

    def _storable(self, block_payload: Payload, lbn: int
                  ) -> Optional[Payload]:
        """The block as the FS cache stores it at ``lbn``; ``None`` if
        its NCache chunk is gone (see :attr:`lbn_annotator`)."""
        if self.lbn_annotator is None:
            return block_payload
        return self.lbn_annotator(block_payload, lbn)

    def _leaving(self, payload: Payload, lbn: int) -> Payload:
        """A payload of the pages from ``lbn`` on as it leaves the cache
        (a reply, a flush, a page a fill holds): under NCache with the
        chunks behind its keys pinned; a key that no longer resolves
        raises."""
        if self.pin_keys is None:
            return payload
        held = self.pin_keys(payload)
        if held is None:
            raise SimulationError(
                f"dangling key in the pages from LBN {lbn} leaving the "
                "FS cache")
        return held
