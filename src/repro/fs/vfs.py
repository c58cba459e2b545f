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

from typing import (Any, Callable, Dict, Generator, List, Optional, Protocol,
                    Set, Tuple)

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
                 discipline: CopyDiscipline = CopyDiscipline.PHYSICAL,
                 readahead_blocks: int = 0) -> None:
        self.host = host
        self.image = image
        self.cache = cache
        self.blockdev = blockdev
        self.discipline = discipline
        self.readahead_blocks = readahead_blocks
        self.block_size = image.block_size
        #: NCache's two hooks (None without it).  ``lbn_annotator(block,
        #: lbn)`` is applied to each data block a fill or a write stores:
        #: it stamps the block's LBN key onto key-carrying placeholders so
        #: post-remap lookups succeed ("some NFS read replies may contain
        #: both an FHO key and an LBN key", §3.4), and returns ``None``
        #: for a block whose chunk is gone — a fill then refetches it, a
        #: write stores no page.  ``pin_keys(payload)`` pins the chunks
        #: behind the keys of a reply or flush as it leaves the cache.
        self.lbn_annotator: Optional[
            Callable[[Payload, int], Optional[Payload]]] = None
        self.pin_keys: Optional[Callable[[Payload], Optional[Payload]]] = None
        #: In-flight fills ``(first lbn, nblocks, claimed)``: a writeback
        #: starting meanwhile adds its block to ``claimed``.
        self._fills: Dict[int, Tuple[int, int, Set[int]]] = {}
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
        in flight); also the arbiter's routine for its squeeze victim."""
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
        payload = self._leaving(concat(payloads))
        if payload is None:
            raise SimulationError(
                f"dangling key in dirty block {lbn} leaving the FS cache")
        done = self.host.sim.event()
        for entry in entries:
            entry.pins += 1
            self._writing[entry] = done
            for first, n, claimed in self._fills.values():
                if first <= entry.lbn < first + n:
                    claimed.add(entry.lbn)
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

        Misses are batched into contiguous block-device reads, extended by
        the readahead window (clamped to the file extent).
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

        # Probe every block first (recency touch + hit/miss accounting as
        # usual).  Page pinning only matters once a fill yields control —
        # nothing can evict between here and use otherwise — so the
        # all-present steady state skips the pin/peek/unpin bookkeeping
        # entirely.
        entries = [self.cache.lookup(inode.block_lbn(b))
                   for b in range(first, last + 1)]
        if None in entries:
            entries = yield from self._fill_missing(inode, first, entries)
        whole = concat([e.payload for e in entries])
        within = offset - first * bs
        held = self._leaving(whole.slice(within, length))
        if held is None:
            raise SimulationError(
                f"dangling key in block {first}..{last} of inode "
                f"{inode.ino} leaving the FS cache")
        return held, nblocks

    def _fill_missing(self, inode: Inode, first: int,
                      entries: List[Optional[CacheEntry]]
                      ) -> Generator[Event, Any, list]:
        """Fill the blocks ``entries`` (from block ``first`` on) lacks;
        return every block's page, all present at once.

        Pin present pages (page locks) so later fills in this same
        request cannot evict them, then fill the missing runs.  No
        simulated time has passed since the probe, so the presence map
        is still exact.  A fill leaves out a block whose chunk was
        evicted before its page went in, and a reclaimed chunk takes
        its page along: the blocks missing after the fills are fetched
        again.
        """
        last = first + len(entries) - 1
        locked: Dict[int, CacheEntry] = {}  # lbn -> the page this read locked
        readahead = self.readahead_blocks
        try:
            while None in entries:
                missing_runs: List[tuple] = []
                run_start = None
                for b, entry in zip(range(first, last + 1), entries):
                    if entry is not None:
                        if locked.get(entry.lbn) is not entry:
                            self.cache.pin(entry.lbn)
                            locked[entry.lbn] = entry
                        if run_start is not None:
                            missing_runs.append((run_start, b - run_start))
                            run_start = None
                    elif run_start is None:
                        run_start = b
                if run_start is not None:
                    missing_runs.append((run_start, last + 1 - run_start))

                for start_b, count in missing_runs:
                    # Readahead: extend the tail run to prefetch ahead.
                    extra = 0
                    if readahead and start_b + count == last + 1:
                        extra = min(readahead,
                                    inode.nblocks - (start_b + count))
                    yield from self._fill_blocks(inode, start_b,
                                                 count + extra)
                    for b in range(start_b, start_b + count):
                        lbn = inode.block_lbn(b)
                        entry = self.cache.peek(lbn)
                        if entry is not None:
                            self.cache.pin(lbn)
                            locked[lbn] = entry
                readahead = 0  # a refetch reads no further ahead
                entries = [self.cache.peek(inode.block_lbn(b))
                           for b in range(first, last + 1)]
        finally:
            for lbn, entry in locked.items():
                if self.cache.peek(lbn) is entry:
                    self.cache.unpin(lbn)
        return entries

    def _fill_blocks(self, inode: Inode, first_block: int, nblocks: int
                     ) -> Generator[Event, Any, None]:
        """Read ``nblocks`` into the cache, leaving a block resident by
        then or whose writeback started meanwhile: it is as new."""
        lbn = inode.block_lbn(first_block)
        claimed: Set[int] = set()
        self._fills[id(claimed)] = (lbn, nblocks, claimed)
        try:
            yield from self.host.acct.compute(
                self.host.costs.blockio_ns, "fs.blockio")
            payload = yield from self.blockdev.read(lbn, nblocks,
                                                    is_metadata=False)
            yield from self.host.acct.move(
                self.discipline, payload.length, "cache_fill", nkeys=nblocks)
            stored = apply_discipline(payload, self.discipline)
            yield from self._evict_for(nblocks)
        finally:
            del self._fills[id(claimed)]
        bs = self.block_size
        for i in range(nblocks):
            if lbn + i in claimed or lbn + i in self.cache:
                continue
            block_payload = self._storable(stored.slice(i * bs, bs), lbn + i)
            if block_payload is not None:
                self.cache.insert(lbn + i, block_payload)

    def _storable(self, block_payload: Payload, lbn: int
                  ) -> Optional[Payload]:
        """The block as the FS cache stores it at ``lbn``; ``None`` if
        its NCache chunk is gone (see :attr:`lbn_annotator`)."""
        if self.lbn_annotator is None:
            return block_payload
        return self.lbn_annotator(block_payload, lbn)

    def _leaving(self, payload: Payload) -> Optional[Payload]:
        """A reply's or flush's payload as it leaves the cache: under
        NCache the chunks behind its keys are pinned until the TX hook
        substitutes them; ``None`` if one of them is gone."""
        if self.pin_keys is None:
            return payload
        return self.pin_keys(payload)
