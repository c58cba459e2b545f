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

from typing import Any, Generator, List, Protocol

from ..copymodel.accounting import CopyDiscipline
from ..net.buffer import Payload, apply_discipline, concat
from ..net.host import Host
from ..sim.engine import Event
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
        #: Optional hook ``fn(block_payload, lbn) -> payload`` applied to
        #: each block stored by :meth:`write`.  The NCache wiring uses it
        #: to stamp the block's LBN key onto key-carrying placeholders so
        #: post-remap lookups succeed ("some NFS read replies may contain
        #: both an FHO key and an LBN key", §3.4).
        self.lbn_annotator = None

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
            block_payload = stored.slice(i * bs, bs)
            if self.lbn_annotator is not None:
                block_payload = self.lbn_annotator(block_payload, lbn)
            entry = self.cache.peek(lbn)
            if entry is not None:
                entry.payload = block_payload
                entry.dirty = True
                self.cache.lookup(lbn)  # LRU touch + hit accounting
            else:
                yield from self._evict_for(1)
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
        self.cache.mark_clean(lbn)
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
            if entry is not None and entry.dirty:
                entries.append(entry)
        if not entries:
            return 0
        if len(entries) != len(lbns):
            # A block went clean/evicted meanwhile; fall back per block.
            count = 0
            for entry in entries:
                yield from self.write_back_entry(entry)
                self.cache.mark_clean(entry.lbn)
                count += 1
            return count
        self.cache.counters.add("bcache.writeback", len(entries))
        payload = concat([e.payload for e in entries])
        yield from self.blockdev.write(lbns[0], payload, is_metadata=False)
        for entry in entries:
            self.cache.mark_clean(entry.lbn)
        return len(entries)

    def write_back_entry(self, entry: CacheEntry
                         ) -> Generator[Event, Any, None]:
        """Write one dirty page through the block device.

        Also the arbiter's writeback routine for pages its squeeze
        dislodges from the buffer cache — under NCache the write path
        remaps the backing FHO chunk exactly as eviction writeback does.
        """
        self.cache.counters.add("bcache.writeback")
        yield from self.blockdev.write(entry.lbn, entry.payload,
                                       is_metadata=entry.is_metadata)

    def _evict_for(self, nblocks: int) -> Generator[Event, Any, None]:
        """Make room, writing back any dirty victims first.

        ``make_room`` frees space synchronously, but writing back a
        dirty victim yields — a concurrent request can claim the freed
        slot before our insert runs.  Re-check and re-evict until the
        room survives the writebacks (clean victims never yield, so the
        common path is a single pass with no extra events).
        """
        while True:
            for victim in self.cache.make_room(nblocks):
                yield from self.write_back_entry(victim)
            if self.cache.has_room(nblocks):
                return

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
        probed = []
        missing = False
        for b in range(first, last + 1):
            entry = self.cache.lookup(inode.block_lbn(b))
            probed.append(entry)
            if entry is None:
                missing = True
        if not missing:
            whole = concat([e.payload for e in probed])
            within = offset - first * bs
            return whole.slice(within, length), nblocks

        # Pin present pages (page locks) so later fills in this same
        # request cannot evict them, then fill the missing runs.  No
        # simulated time has passed since the probe, so the presence map
        # is still exact.
        pinned: List[int] = []
        try:
            missing_runs: List[tuple] = []
            run_start = None
            for i, b in enumerate(range(first, last + 1)):
                present = probed[i] is not None
                if present:
                    lbn = inode.block_lbn(b)
                    self.cache.pin(lbn)
                    pinned.append(lbn)
                if not present and run_start is None:
                    run_start = b
                elif present and run_start is not None:
                    missing_runs.append((run_start, b - run_start))
                    run_start = None
            if run_start is not None:
                missing_runs.append((run_start, last + 1 - run_start))

            for start_b, count in missing_runs:
                # Readahead: extend the tail run to prefetch ahead.
                extra = 0
                if self.readahead_blocks and start_b + count == last + 1:
                    extra = min(self.readahead_blocks,
                                inode.nblocks - (start_b + count))
                yield from self._fill_blocks(inode, start_b, count + extra)
                for b in range(start_b, start_b + count):
                    lbn = inode.block_lbn(b)
                    if self.cache.pin(lbn):
                        pinned.append(lbn)

            parts = []
            for b in range(first, last + 1):
                entry = self.cache.peek(inode.block_lbn(b))
                if entry is None:
                    raise RuntimeError(
                        f"block {b} of inode {inode.ino} lost despite "
                        "page pinning; cache smaller than one request")
                parts.append(entry.payload)
        finally:
            for lbn in pinned:
                self.cache.unpin(lbn)
        whole = concat(parts)
        within = offset - first * bs
        return whole.slice(within, length), nblocks

    def _fill_blocks(self, inode: Inode, first_block: int, nblocks: int
                     ) -> Generator[Event, Any, None]:
        lbn = inode.block_lbn(first_block)
        yield from self.host.acct.compute(
            self.host.costs.blockio_ns, "fs.blockio")
        payload = yield from self.blockdev.read(lbn, nblocks,
                                                is_metadata=False)
        yield from self.host.acct.move(
            self.discipline, payload.length, "cache_fill", nkeys=nblocks)
        stored = apply_discipline(payload, self.discipline)
        bs = self.block_size
        yield from self._evict_for(nblocks)
        for i in range(nblocks):
            self.cache.insert(lbn + i, stored.slice(i * bs, bs))
