"""iSCSI initiator: the block device under the pass-through server's VFS.

The paper modifies the initiator in exactly one way: "two functions
invoking socket interface changed" (Table 1) so it can use the logical-
copy socket interface.  Here that corresponds to the ``discipline``
carried on reads and writes — everything else is the stock data path.

An inbound Data-In burst traverses the host's RX hooks *before* reaching
this code; under NCache the hook caches the payload buffers and leaves a
key-carrying placeholder in ``dgram.keyed_payload``, which this
initiator hands up to the VFS in place of the raw chain payload.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Generator, Optional

from ..copymodel.accounting import CopyDiscipline
from ..fs.disk import BLOCK_SIZE
from ..net.addresses import Endpoint, ISCSI_PORT
from ..net.buffer import BytesPayload, JunkPayload, Payload
from ..net.host import Host
from ..net.network import Datagram
from ..net.stack import TCPConnection
from ..sim.engine import Event, SimulationError
from ..sim.resources import Resource
from .pdu import BHS_SIZE, DataIn, ScsiCommand


class IscsiInitiator:
    """Implements the :class:`repro.fs.vfs.BlockDevice` protocol over TCP."""

    #: Default command-window depth (MaxCmdSN - ExpCmdSN in RFC 3720
    #: terms): how many SCSI commands may be outstanding on the session.
    DEFAULT_QUEUE_DEPTH = 64

    def __init__(self, host: Host, local_ip: str, target: Endpoint,
                 lun: int = 0,
                 discipline: CopyDiscipline = CopyDiscipline.PHYSICAL,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        if queue_depth < 1:
            raise SimulationError("queue_depth must be >= 1")
        self.host = host
        self.local_ip = local_ip
        self.target = target
        self.lun = lun
        self.discipline = discipline
        self._window = Resource(host.sim, capacity=queue_depth,
                                name="iscsi-cmd-window")
        self.conn: Optional[TCPConnection] = None
        self._tags = itertools.count(1)
        self._pending: Dict[int, Event] = {}
        #: Optional ``fn(lbn, nblocks) -> payload | None`` consulted
        #: before a read goes on the wire.  This is NCache's second-level
        #: cache seam (§3.4): file-system cache misses "are caught and
        #: serviced by a much larger network-centric cache".
        self.read_interceptor = None

    # -- session ------------------------------------------------------------

    def connect(self) -> Generator[Event, Any, None]:
        self.conn = yield from self.host.stack.tcp_connect(
            self.local_ip, 33000, self.target)
        self.conn.on_message = self._on_message

    def _require_conn(self) -> TCPConnection:
        if self.conn is None:
            raise SimulationError("initiator used before connect()")
        return self.conn

    # -- BlockDevice API -----------------------------------------------------

    def read(self, lbn: int, nblocks: int, is_metadata: bool = False
             ) -> Generator[Event, Any, Payload]:
        """Issue a SCSI read; returns the response payload.

        Under NCache the returned payload is the keyed placeholder left by
        the RX hook; otherwise it is the received data itself.
        """
        if self.read_interceptor is not None and not is_metadata:
            served = yield from self.read_interceptor(lbn, nblocks)
            if served is not None:
                return served
        conn = self._require_conn()
        yield self._window.acquire()
        try:
            tag = next(self._tags)
            cmd = ScsiCommand("read", tag, self.lun, lbn, nblocks,
                              is_metadata=is_metadata)
            yield from self.host.acct.compute(
                self.host.costs.iscsi_pdu_ns, "iscsi.cmd")
            done = self.host.sim.event()
            self._pending[tag] = done
            yield from conn.send(cmd, data=BytesPayload(b""),
                                 header=JunkPayload(BHS_SIZE))
            dgram: Datagram = yield done
        finally:
            self._window.release()
        response = dgram.message
        if not isinstance(response, DataIn) or response.status != 0:
            raise SimulationError(f"read tag {tag} failed: {response!r}")
        keyed = dgram.keyed_payload
        if keyed is not None:
            return keyed
        payload = dgram.chain.payload()
        return payload.slice(BHS_SIZE, payload.length - BHS_SIZE)

    def write(self, lbn: int, payload: Payload, is_metadata: bool = False
              ) -> Generator[Event, Any, None]:
        """Issue a SCSI write with immediate data.

        The data movement into the outbound socket buffers honours the
        initiator's discipline: a physical copy in the original server,
        a logical (key) copy under NCache — whose TX hook then remaps and
        substitutes the real buffers below the stack (§3.4).
        """
        conn = self._require_conn()
        if payload.length == 0:
            raise SimulationError("empty write")
        if payload.length % BLOCK_SIZE:
            raise SimulationError("iSCSI writes must be block-aligned")
        nblocks = payload.length // BLOCK_SIZE
        yield self._window.acquire()
        try:
            tag = next(self._tags)
            cmd = ScsiCommand("write", tag, self.lun, lbn, nblocks,
                              is_metadata=is_metadata)
            yield from self.host.acct.compute(
                self.host.costs.iscsi_pdu_ns, "iscsi.cmd")
            done = self.host.sim.event()
            self._pending[tag] = done
            yield from conn.send(cmd, data=payload,
                                 header=JunkPayload(BHS_SIZE),
                                 discipline=self.discipline,
                                 is_metadata=is_metadata)
            dgram: Datagram = yield done
        finally:
            self._window.release()
        response = dgram.message
        status = getattr(response, "status", -1)
        if status != 0:
            raise SimulationError(f"write tag {tag} failed: {response!r}")

    # -- inbound dispatch ------------------------------------------------------

    def _on_message(self, conn: TCPConnection, dgram: Datagram
                    ) -> Generator[Event, Any, None]:
        yield from self.host.acct.compute(
            self.host.costs.iscsi_pdu_ns, "iscsi.rx")
        message = dgram.message
        tag = getattr(message, "task_tag", None)
        if tag is None:
            raise SimulationError(f"unexpected iSCSI message {message!r}")
        waiter = self._pending.pop(tag, None)
        if waiter is None:
            raise SimulationError(f"response for unknown tag {tag}")
        waiter.succeed(dgram)


def default_target_endpoint(ip: str) -> Endpoint:
    """The well-known iSCSI endpoint on a storage host."""
    return Endpoint(ip, ISCSI_PORT)
