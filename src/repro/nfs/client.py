"""NFS client used by the workload generators.

Mirrors the paper's measurement clients: they issue requests and receive
replies but "do not interpret the payloads" (§5.1), so the client charges
per-packet receive costs only — no payload copies — keeping client CPUs
out of the bottleneck picture, as two P3 clients were in the testbed.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..net.addresses import Endpoint
from ..net.buffer import EMPTY_PAYLOAD, JunkPayload, Payload
from ..net.host import Host
from ..net.network import Datagram
from ..rpc.messages import XidMatcher
from ..sim.engine import Event, SimulationError
from .protocol import FileHandle, NfsCall, NfsProc, NfsReply

#: Sentinel delivered to a pending reply waiter when its RTO expires.
_RTO_EXPIRED = object()


class NfsClient:
    """One mount point on a client host.

    NFS over UDP recovers loss by client retransmission: a call is resent
    with the *same xid* after ``rto_s`` (doubling per attempt, bounded by
    ``max_attempts``).  The server's duplicate-request cache recognizes
    the xid and replays the reply without re-executing the operation.
    """

    def __init__(self, host: Host, local_ip: str, server: Endpoint,
                 local_port: int = 900, rto_s: float = 0.05,
                 max_attempts: int = 6) -> None:
        self.host = host
        self.local_ip = local_ip
        self.server = server
        self.local_port = local_port
        self.rto_s = rto_s
        self.max_attempts = max_attempts
        self.retransmissions = 0
        self.matcher = XidMatcher(host.sim)
        host.stack.udp_bind(local_port, self._on_reply)

    def _on_reply(self, dgram: Datagram) -> None:
        reply = dgram.message
        if not isinstance(reply, NfsReply):
            raise SimulationError(f"client got {reply!r}")
        # Late duplicate replies (a retransmitted call that raced with the
        # original's reply) are dropped, like the real client does.
        if self.matcher.is_pending(reply.xid):
            self.matcher.resolve(reply.xid, dgram)

    # -- generic call ----------------------------------------------------------

    # ``trace`` is never read: benchmarks/ncbench/oracle.py (frozen) passes it.
    def call(self, proc: NfsProc, fh: Optional[FileHandle] = None,
             name: Optional[str] = None, offset: int = 0, count: int = 0,
             data: Optional[Payload] = None, trace: None = None,
             new_size: Optional[int] = None
             ) -> Generator[Event, Any, Datagram]:
        """Issue one NFS call; returns the reply datagram."""
        xid = self.matcher.new_xid()
        call = NfsCall(xid=xid, proc=proc, fh=fh, name=name,
                       offset=offset, count=count, new_size=new_size)
        data = data if data is not None else EMPTY_PAYLOAD
        waiter = self.matcher.expect(xid)
        rto = self.rto_s
        for attempt in range(self.max_attempts):
            yield from self.host.stack.udp_send(
                src_ip=self.local_ip, src_port=self.local_port,
                dst=self.server, message=call, data=data,
                header=JunkPayload(call.header_size),
                is_metadata=call.is_metadata)
            # The RTO is a cancellable timer that expires the *waiter*
            # with a sentinel, so the process waits on one event instead
            # of racing two through AnyOf — one dispatch and two Event
            # allocations cheaper per RPC, and a reply that wins the
            # race cancels the timer so the engine never dispatches it.
            timer = self.host.sim.call_later(rto, self._rto_expire,
                                             xid, waiter)
            value = yield waiter
            if value is not _RTO_EXPIRED:
                timer.cancel()
                return value
            self.retransmissions += 1
            rto *= 2
            if attempt + 1 < self.max_attempts:
                waiter = self.matcher.expect(xid)
        raise SimulationError(
            f"NFS call xid {xid} ({proc.name}) timed out after "
            f"{self.max_attempts} attempts")

    def _rto_expire(self, xid: int, waiter: Event) -> None:
        if waiter.triggered:
            return  # the reply landed at this exact instant; it wins
        # Forget the xid first so a reply racing this expiry is ignored
        # by the handler (the retransmission will hit the server's
        # duplicate-request cache and replay it).
        self.matcher.cancel(xid)
        waiter.succeed(_RTO_EXPIRED)

    # -- convenience wrappers ---------------------------------------------------

    def lookup(self, name: str) -> Generator[Event, Any, NfsReply]:
        dgram = yield from self.call(NfsProc.LOOKUP, name=name)
        return dgram.message

    def getattr(self, fh: FileHandle) -> Generator[Event, Any, NfsReply]:
        dgram = yield from self.call(NfsProc.GETATTR, fh=fh)
        return dgram.message

    def read(self, fh: FileHandle, offset: int, count: int
             ) -> Generator[Event, Any, Datagram]:
        """READ; the returned datagram's chain carries the data bytes.

        Returns :meth:`call`'s generator itself (as :meth:`write` does):
        a delegating frame on every request would only pass it through.
        """
        return self.call(NfsProc.READ, fh=fh, offset=offset, count=count)

    def write(self, fh: FileHandle, offset: int, data: Payload
              ) -> Generator[Event, Any, Datagram]:
        return self.call(NfsProc.WRITE, fh=fh, offset=offset,
                         count=data.length, data=data)

    def commit(self, fh: FileHandle, offset: int = 0, count: int = 0
               ) -> Generator[Event, Any, NfsReply]:
        dgram = yield from self.call(NfsProc.COMMIT, fh=fh, offset=offset,
                                     count=count)
        return dgram.message

    def setattr_size(self, fh: FileHandle, new_size: int
                     ) -> Generator[Event, Any, NfsReply]:
        """Truncate the file to ``new_size`` bytes."""
        dgram = yield from self.call(NfsProc.SETATTR, fh=fh,
                                     new_size=new_size)
        return dgram.message

    def remove(self, name: str) -> Generator[Event, Any, NfsReply]:
        dgram = yield from self.call(NfsProc.REMOVE, name=name)
        return dgram.message


def read_reply_data(dgram: Datagram) -> Payload:
    """Extract the data bytes from a READ reply datagram."""
    reply = dgram.message
    whole = dgram.chain.payload()
    return whole.slice(reply.header_size, whole.length - reply.header_size)
