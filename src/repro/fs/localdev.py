"""A block device backed by local disks (used inside the storage server)."""

from __future__ import annotations

from typing import Any, Generator

from ..net.buffer import Payload, concat
from ..sim.engine import Event
from .disk import Raid0
from .image import DiskStore


class LocalBlockDevice:
    """Raid-backed block device: disk service time + authoritative contents.

    Data transfer between disk and memory is DMA and costs no CPU; the
    iSCSI target charges its own copies on top of this device.
    """

    def __init__(self, store: DiskStore, raid: Raid0) -> None:
        self.store = store
        self.raid = raid
        self.block_size = store.image.block_size

    def read(self, lbn: int, nblocks: int, is_metadata: bool = False
             ) -> Generator[Event, Any, Payload]:
        yield from self.raid.io(lbn, nblocks, write=False)
        return concat(self.store.read_blocks(lbn, nblocks))

    def write(self, lbn: int, payload: Payload, is_metadata: bool = False
              ) -> Generator[Event, Any, None]:
        if payload.length % self.block_size:
            raise ValueError("block device writes must be block-aligned")
        nblocks = payload.length // self.block_size
        yield from self.raid.io(lbn, nblocks, write=True)
        self.store.write_extent(lbn, payload)
