"""iSCSI target: the storage server at the back of the testbed.

The target always runs the stock (physical-copy) data path — the paper's
contribution lives in the pass-through server, and the storage server is
identical across the three configurations.  Its cost structure matters
because the all-miss experiments (Figure 4) saturate *its* CPU once the
NFS server stops being the bottleneck: "the storage server's CPU remains
saturated from this point onwards" (§5.4).

Per read: disk I/O (DMA, no CPU), one copy disk-buffer → iSCSI send
buffer, plus the socket-boundary copy and per-segment TCP costs charged by
the stack.  Per write: the mirror image.
"""

from __future__ import annotations

from typing import Any, Generator

from ..copymodel.accounting import CopyDiscipline
from ..fs.localdev import LocalBlockDevice
from ..net.addresses import ISCSI_PORT
from ..net.buffer import JunkPayload
from ..net.host import Host
from ..net.network import Datagram
from ..net.stack import TCPConnection
from ..sim.engine import Event, SimulationError
from .pdu import BHS_SIZE, DataIn, ScsiCommand, ScsiResponse


class IscsiTarget:
    """Serves SCSI reads/writes from a local RAID-backed block device.

    ``network_ready_disk`` implements the paper's §6 future-work idea:
    "organizing disk-resident data in a network-ready format ... so that
    even non-pass-through file servers can also benefit from
    network-centric caching".  With it enabled, blocks live on disk
    pre-framed for the wire, so the target's disk-buffer→iSCSI copy
    disappears (a small reframe cost per command remains) — the storage
    server itself becomes copy-free on the read path.
    """

    #: per-command cost of fixing up pre-framed on-disk data (headers,
    #: sequence numbers) instead of copying it.
    REFRAME_NS = 4000.0

    def __init__(self, host: Host, blockdev: LocalBlockDevice,
                 port: int = ISCSI_PORT,
                 network_ready_disk: bool = False) -> None:
        self.host = host
        self.blockdev = blockdev
        self.port = port
        self.network_ready_disk = network_ready_disk
        self.commands_served = 0
        #: read commands only — the backend-read miss traffic the cache
        #: experiments score on (writes are writeback policy, not misses).
        self.reads_served = 0
        host.stack.tcp_listen(port, self._accept)

    def _accept(self, conn: TCPConnection) -> None:
        conn.on_message = self._on_message

    def _on_message(self, conn: TCPConnection, dgram: Datagram
                    ) -> Generator[Event, Any, None]:
        cmd = dgram.message
        if not isinstance(cmd, ScsiCommand):
            raise SimulationError(f"target got non-command {cmd!r}")
        yield from self.host.acct.compute(
            self.host.costs.iscsi_pdu_ns, "iscsi.cmd_rx")
        yield from self.host.acct.compute(
            self.host.costs.iscsi_target_op_ns, "iscsi.target_op")
        self.commands_served += 1
        if cmd.is_read:
            self.reads_served += 1
            yield from self._serve_read(conn, cmd)
        else:
            yield from self._serve_write(conn, dgram, cmd)

    def _serve_read(self, conn: TCPConnection, cmd: ScsiCommand
                    ) -> Generator[Event, Any, None]:
        payload = yield from self.blockdev.read(cmd.lba, cmd.nblocks,
                                                is_metadata=cmd.is_metadata)
        response = DataIn(task_tag=cmd.task_tag, lun=cmd.lun, lba=cmd.lba,
                          nblocks=cmd.nblocks, is_metadata=cmd.is_metadata)
        yield from self.host.acct.compute(
            self.host.costs.iscsi_pdu_ns, "iscsi.data_tx")
        if self.network_ready_disk and not cmd.is_metadata:
            # §6: data is stored pre-framed; no disk-buffer copy and no
            # socket-boundary copy — only a per-command reframe fix-up.
            yield from self.host.acct.compute(
                self.REFRAME_NS, "iscsi.reframe")
            yield from conn.send(response, data=payload,
                                 header=JunkPayload(BHS_SIZE),
                                 discipline=CopyDiscipline.LOGICAL)
            return
        # Disk buffer -> iSCSI layer buffer (layered architecture copy).
        yield from self.host.acct.physical_copy(
            payload.length, "target_read_buf", is_metadata=cmd.is_metadata)
        yield from conn.send(response, data=payload.physical_copy(),
                             header=JunkPayload(BHS_SIZE),
                             discipline=CopyDiscipline.PHYSICAL,
                             is_metadata=cmd.is_metadata)

    def _serve_write(self, conn: TCPConnection, dgram: Datagram,
                     cmd: ScsiCommand) -> Generator[Event, Any, None]:
        whole = dgram.chain.payload()
        data = whole.slice(BHS_SIZE, whole.length - BHS_SIZE)
        expected = cmd.nblocks * self.blockdev.block_size
        if data.length != expected:
            raise SimulationError(
                f"write tag {cmd.task_tag}: got {data.length} bytes, "
                f"command says {expected}")
        # Receive buffers -> disk write buffer (layered architecture copy).
        yield from self.host.acct.physical_copy(
            data.length, "target_write_buf", is_metadata=cmd.is_metadata)
        yield from self.blockdev.write(cmd.lba, data.physical_copy(),
                                       is_metadata=cmd.is_metadata)
        yield from self.host.acct.compute(
            self.host.costs.iscsi_pdu_ns, "iscsi.status_tx")
        yield from conn.send(ScsiResponse(task_tag=cmd.task_tag),
                             data=JunkPayload(0),
                             header=JunkPayload(BHS_SIZE))
