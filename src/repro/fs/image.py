"""Filesystem image: inodes, directories, superblock, block allocation.

The NFS server interprets an ext2-flavoured filesystem that lives on the
iSCSI block device.  ``FsImage`` is the authoritative description of that
on-disk layout — both the server's filesystem code (which *interprets*
metadata) and the storage target (which resolves an LBN to its content)
reference it, exactly as both ends of a real deployment see the same
on-disk bytes.

Layout (in 4 KB blocks):

* LBN 0 — superblock (metadata)
* LBN 1 .. INODE_TABLE_BLOCKS — inode table (metadata)
* then alternating directory blocks and file extents as allocated.

Regular-file content is *virtual*: block ``b`` of inode ``i`` materializes
deterministic bytes derived from ``(image seed, i)`` (see
:func:`repro.net.buffer.pattern_bytes`), so a 2 GB benchmark file costs no
real memory but every byte is still checkable.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..net.buffer import ExtentPayload, Payload, VirtualPayload
from .disk import BLOCK_SIZE


class FileType(enum.Enum):
    """Inode type — the metadata/data distinction hangs off this."""

    REGULAR = "regular"
    DIRECTORY = "directory"


@dataclass
class Inode:
    """An inode: identity, type, size and a contiguous extent."""

    ino: int
    ftype: FileType
    size: int
    start_lbn: int
    nblocks: int
    generation: int = 1
    name: str = ""

    @property
    def is_regular(self) -> bool:
        return self.ftype is FileType.REGULAR

    def block_lbn(self, block_index: int) -> int:
        if not 0 <= block_index < self.nblocks:
            raise ValueError(
                f"block {block_index} out of extent (inode {self.ino}, "
                f"{self.nblocks} blocks)")
        return self.start_lbn + block_index


@dataclass(frozen=True)
class LbnOwner:
    """What a given LBN holds.

    ``kind`` is "super" | "inode_table" | "dir" | "data" | "free"; for
    data blocks, ``inode``/``block_index`` identify the file block.
    """

    kind: str
    inode: Optional[int] = None
    block_index: int = 0

    @property
    def is_metadata(self) -> bool:
        return self.kind in ("super", "inode_table", "dir")


class FsImage:
    """The on-disk filesystem layout and initial contents."""

    INODES_PER_BLOCK = 32
    DIRENTS_PER_BLOCK = 64
    INODE_TABLE_BLOCKS = 128

    def __init__(self, capacity_blocks: int, seed: int = 1,
                 block_size: int = BLOCK_SIZE) -> None:
        if capacity_blocks <= 1 + self.INODE_TABLE_BLOCKS:
            raise ValueError("capacity too small for metadata regions")
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.seed = seed
        self._next_lbn = 1 + self.INODE_TABLE_BLOCKS
        self._next_ino = 2  # 1 is the root directory, ext2-style
        self.inodes: Dict[int, Inode] = {}
        self.by_name: Dict[str, int] = {}
        self._dir_blocks: List[int] = []
        self._dir_block_set: set[int] = set()
        # Sorted extent index for O(log n) lbn_owner: parallel arrays of
        # (extent start, extent end, inode number), starts strictly increasing
        # because allocation is sequential.
        self._extent_starts: List[int] = []
        self._extent_ends: List[int] = []
        self._extent_inos: List[int] = []
        #: ino -> content tag: one int object shared by a file's payloads.
        self._file_tags: Dict[int, int] = {}
        root = Inode(ino=1, ftype=FileType.DIRECTORY, size=0,
                     start_lbn=0, nblocks=0, name="/")
        self.inodes[1] = root

    # -- allocation ---------------------------------------------------------

    def _allocate_blocks(self, nblocks: int) -> int:
        start = self._next_lbn
        if start + nblocks > self.capacity_blocks:
            raise RuntimeError(
                f"filesystem full: need {nblocks} blocks at {start}, "
                f"capacity {self.capacity_blocks}")
        self._next_lbn += nblocks
        return start

    def blocks_for(self, nbytes: int) -> int:
        return max(1, -(-nbytes // self.block_size))

    def create_file(self, name: str, size: int) -> Inode:
        """Create a regular file of ``size`` bytes with initial content."""
        if name in self.by_name:
            raise ValueError(f"file {name!r} exists")
        nblocks = self.blocks_for(size)
        start = self._allocate_blocks(nblocks)
        inode = Inode(ino=self._next_ino, ftype=FileType.REGULAR, size=size,
                      start_lbn=start, nblocks=nblocks, name=name)
        self._next_ino += 1
        self.inodes[inode.ino] = inode
        self.by_name[name] = inode.ino
        self._extent_starts.append(start)
        self._extent_ends.append(start + nblocks)
        self._extent_inos.append(inode.ino)
        self._file_tags[inode.ino] = \
            (self.seed * 0x1000003) ^ (inode.ino * 0x9E3779B1)
        # Grow the root directory by one block per DIRENTS_PER_BLOCK files.
        if (len(self.by_name) - 1) % self.DIRENTS_PER_BLOCK == 0:
            lbn = self._allocate_blocks(1)
            self._dir_blocks.append(lbn)
            self._dir_block_set.add(lbn)
        return inode

    # -- lookups --------------------------------------------------------------

    def lookup(self, name: str) -> Inode:
        ino = self.by_name.get(name)
        if ino is None:
            raise FileNotFoundError(name)
        return self.inodes[ino]

    def inode(self, ino: int) -> Inode:
        try:
            return self.inodes[ino]
        except KeyError:
            raise FileNotFoundError(f"inode {ino}") from None

    # -- lifecycle -----------------------------------------------------------

    def truncate(self, inode: Inode, new_size: int) -> None:
        """Shrink a file.  The extent is kept (blocks are never reused by
        this allocator, so stale cached chunks can never alias new data);
        only the logical size changes."""
        if new_size < 0 or new_size > inode.size:
            raise ValueError(
                f"truncate to {new_size} outside [0, {inode.size}]")
        inode.size = new_size

    def remove_file(self, name: str) -> Inode:
        """Remove a file: the name disappears and the inode goes stale.

        The generation bumps so outstanding file handles (which carry the
        old generation) fail with ESTALE, NFS-style.  Blocks are not
        reclaimed — the sequential allocator never reuses them, which is
        what makes lingering NCache chunks for dead files harmless (they
        simply age out of the LRU).
        """
        inode = self.lookup(name)
        del self.by_name[name]
        inode.generation += 1
        inode.name = ""
        return inode

    def is_stale(self, ino: int, generation: int) -> bool:
        """True if a file handle no longer names a live file."""
        inode = self.inodes.get(ino)
        if inode is None:
            return True
        if inode.generation != generation:
            return True
        return inode.ino != 1 and not inode.name  # removed, same object

    def inode_table_lbn(self, ino: int) -> int:
        """The inode-table block holding this inode's metadata."""
        return 1 + (ino // self.INODES_PER_BLOCK) % self.INODE_TABLE_BLOCKS

    def dir_block_lbn(self, name: str) -> int:
        """The directory block holding the entry for ``name``."""
        if not self._dir_blocks:
            return 0  # superblock stands in before any dir block exists
        index = (self.by_name.get(name, 0) // self.DIRENTS_PER_BLOCK)
        return self._dir_blocks[index % len(self._dir_blocks)]

    def lbn_owner(self, lbn: int) -> LbnOwner:
        if lbn == 0:
            return LbnOwner("super")
        if 1 <= lbn <= self.INODE_TABLE_BLOCKS:
            return LbnOwner("inode_table")
        if lbn in self._dir_block_set:
            return LbnOwner("dir")
        i = bisect.bisect_right(self._extent_starts, lbn) - 1
        if i >= 0 and lbn < self._extent_ends[i]:
            ino = self._extent_inos[i]
            return LbnOwner("data", ino, lbn - self._extent_starts[i])
        return LbnOwner("free")

    # -- content ----------------------------------------------------------------

    def file_payload(self, inode: Inode, offset: int, length: int) -> Payload:
        """Initial content of a byte range of a regular file."""
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        return VirtualPayload(self._file_tags[inode.ino], offset, length)

    def block_payloads(self, inode: Inode, nblocks: int) -> List[Payload]:
        """Initial content of a regular file's first ``nblocks`` blocks,
        one payload per block (what warm start fills a cache with)."""
        if not 0 <= nblocks <= inode.nblocks:
            raise ValueError(f"{nblocks} blocks out of extent (inode "
                             f"{inode.ino}, {inode.nblocks} blocks)")
        tag = self._file_tags[inode.ino]
        size = self.block_size
        return [VirtualPayload(tag, offset, size)
                for offset in range(0, nblocks * size, size)]

    def initial_block_payload(self, lbn: int) -> Payload:
        """Initial content of an arbitrary LBN (what the disks hold)."""
        owner = self.lbn_owner(lbn)
        if owner.kind == "data":
            return VirtualPayload(self._file_tags[owner.inode],
                                  owner.block_index * self.block_size,
                                  self.block_size)
        # Metadata/free blocks: deterministic filler tagged by region.
        return VirtualPayload(self.seed ^ 0x4D455441, lbn * self.block_size,
                              self.block_size)


class DiskStore:
    """Target-side authoritative block contents: image defaults + writes.

    Each overwrite of a block bumps that LBN's **generation**; extent
    payloads stored for the block are restamped with it.  Generations
    never affect content — they let staleness checks compare a small
    integer instead of 4 KB of bytes.
    """

    def __init__(self, image: FsImage) -> None:
        self.image = image
        self._written: Dict[int, Payload] = {}
        self._generations: Dict[int, int] = {}

    def read_block(self, lbn: int) -> Payload:
        payload = self._written.get(lbn)
        if payload is not None:
            return payload
        return self.image.initial_block_payload(lbn)

    def read_blocks(self, lbn: int, nblocks: int) -> List[Payload]:
        return [self.read_block(lbn + i) for i in range(nblocks)]

    def block_generation(self, lbn: int) -> int:
        """How many times ``lbn`` has been overwritten (0 = pristine)."""
        return self._generations.get(lbn, 0)

    def write_block(self, lbn: int, payload: Payload) -> None:
        if payload.length != self.image.block_size:
            raise ValueError(
                f"write of {payload.length} bytes to block-sized store")
        generation = self._generations.get(lbn, 0) + 1
        self._generations[lbn] = generation
        if isinstance(payload, ExtentPayload):
            payload = payload.with_generation(generation)
        self._written[lbn] = payload

    def write_extent(self, lbn: int, payload: Payload) -> None:
        """Write a block-aligned multi-block payload."""
        bs = self.image.block_size
        if payload.length % bs:
            raise ValueError("extent write must be block-aligned")
        for i in range(payload.length // bs):
            self.write_block(lbn + i, payload.slice(i * bs, bs))

    @property
    def written_blocks(self) -> int:
        return len(self._written)
