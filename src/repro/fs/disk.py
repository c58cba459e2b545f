"""Disk and RAID-0 models.

The paper's storage server uses four IDE disks (IBM DTLA-307075, 7200 rpm)
behind Promise controllers as RAID-0.  We model each disk with a classic
seek + rotation + transfer service time and a sequential-access fast path
(no seek/rotation when the request continues the previous one), and RAID-0
as striping with the component reads in parallel.

Times are computed in **block** units; the filesystem block (4 KB) is the
unit of LBNs throughout the library.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..sim.engine import AllOf, Event, Simulator
from ..sim.process import start
from ..sim.resources import Resource

#: Filesystem block size used across the library (Linux 4 KB pages).
BLOCK_SIZE = 4096


class DiskModel:
    """A single disk with FIFO service and sequential detection."""

    #: Concurrent sequential streams the drive+elevator can keep sequential
    #: (track buffer segments, firmware readahead, request-queue sorting).
    #: Interleaved sequential streams from multiple clients stay seek-free
    #: up to this many cursors.
    STREAM_CURSORS = 64

    #: The drive: 8.5 ms average seek, 4.17 ms average rotational delay
    #: (7200 rpm) and 35 MB/s media transfer.
    SEEK_S = 8.5 * 1e-3
    ROTATION_S = 4.17 * 1e-3
    TRANSFER_BPS = 35.0 * 1024 * 1024

    def __init__(self, sim: Simulator, name: str = "disk",
                 block_size: int = BLOCK_SIZE) -> None:
        self.sim = sim
        self.name = name
        self.block_size = block_size
        self._resource = Resource(sim, capacity=1, name=name)
        self._cursors: list[int] = []  # expected next LBN per live stream
        self.reads = 0
        self.writes = 0
        self.sequential_hits = 0

    def service_time(self, lbn: int, nblocks: int) -> float:
        """Service time for one request, given the head position state."""
        transfer = nblocks * self.block_size / self.TRANSFER_BPS
        if lbn in self._cursors:
            return transfer
        return self.SEEK_S + self.ROTATION_S + transfer

    def _advance_cursor(self, lbn: int, nblocks: int) -> None:
        if lbn in self._cursors:
            self._cursors.remove(lbn)
            self.sequential_hits += 1
        self._cursors.append(lbn + nblocks)
        if len(self._cursors) > self.STREAM_CURSORS:
            self._cursors.pop(0)

    def io(self, lbn: int, nblocks: int, write: bool = False
           ) -> Generator[Event, Any, None]:
        """Perform one I/O (process helper); FIFO queueing on the disk."""
        if nblocks <= 0:
            raise ValueError("nblocks must be positive")
        yield self._resource.acquire()
        try:
            hold = self.service_time(lbn, nblocks)
            self._advance_cursor(lbn, nblocks)
            if write:
                self.writes += 1
            else:
                self.reads += 1
            yield hold  # plain delay: no Event, one dispatch
        finally:
            self._resource.release()

    def busy_time(self) -> float:
        return self._resource.busy_time()

    def utilization(self, since_busy: float, since_time: float) -> float:
        return self._resource.utilization(since_busy, since_time)


class Raid0:
    """RAID-0 striping over identical disks; component I/Os run in parallel.

    ``stripe_blocks`` is the stripe unit in filesystem blocks (the paper
    does not give the chunk size; 16 blocks = 64 KB is a typical default).
    """

    def __init__(self, disks: List[DiskModel], stripe_blocks: int = 16) -> None:
        if not disks:
            raise ValueError("need at least one disk")
        if stripe_blocks <= 0:
            raise ValueError("stripe_blocks must be positive")
        self.disks = disks
        self.stripe_blocks = stripe_blocks
        self.sim = disks[0].sim

    def _split(self, lbn: int, nblocks: int) -> List[tuple]:
        """Split a logical extent into per-disk (disk, disk_lbn, n) pieces."""
        pieces = []
        remaining = nblocks
        cursor = lbn
        while remaining > 0:
            stripe_index = cursor // self.stripe_blocks
            within = cursor % self.stripe_blocks
            disk = self.disks[stripe_index % len(self.disks)]
            row = stripe_index // len(self.disks)
            disk_lbn = row * self.stripe_blocks + within
            take = min(self.stripe_blocks - within, remaining)
            pieces.append((disk, disk_lbn, take))
            cursor += take
            remaining -= take
        return pieces

    def io(self, lbn: int, nblocks: int, write: bool = False
           ) -> Generator[Event, Any, None]:
        """One logical I/O; component disk I/Os proceed in parallel."""
        pieces = self._split(lbn, nblocks)
        if len(pieces) == 1:
            disk, disk_lbn, take = pieces[0]
            yield from disk.io(disk_lbn, take, write)
            return
        procs = [start(self.sim, disk.io(disk_lbn, take, write),
                       name=f"raid-{disk.name}")
                 for disk, disk_lbn, take in pieces]
        yield AllOf(self.sim, procs)

    def busy_time(self) -> float:
        return sum(d.busy_time() for d in self.disks)


def make_paper_raid(sim: Simulator) -> Raid0:
    """The paper's storage: 4 IDE disks as RAID-0."""
    disks = [DiskModel(sim, name=f"ide{i}") for i in range(4)]
    return Raid0(disks)
