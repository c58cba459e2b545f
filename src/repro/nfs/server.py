"""The in-kernel NFS server daemon (nfsd).

A pool of ``n_daemons`` worker processes pulls requests off a shared queue
— the simulated analog of the knfsd thread count, which the paper tunes
per request size ("the number of NFS server daemons was also adjusted to
reach the best performance", §5.4).

The data path per procedure, with the copy counts of Table 2:

* READ:  VFS read (``fs_read`` move) then UDP send (``sock_tx`` move) —
  2 copies on a hit, 3 on a miss (``cache_fill``) in the original server.
* WRITE: received payload → page cache (``cache_write`` move) — 1 copy if
  the block is later overwritten, 2 once it is flushed (``sock_tx`` on the
  iSCSI connection).
* metadata procedures: small physical movements, identical in all modes.

The server is oblivious to NCache except for two seams: the VFS discipline
it was configured with, and ``dgram.keyed_payload`` left by the
RX hook on write requests (the in-kernel daemon itself is unmodified —
Table 1: "NFS/Web server daemon: None").
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Generator, Optional

from ..copymodel.accounting import CopyDiscipline
from ..fs.vfs import VFS
from ..net.addresses import NFS_PORT
from ..net.buffer import BytesPayload, JunkPayload, Payload
from ..net.host import Host
from ..net.network import Datagram
from ..sim.engine import Event, SimulationError
from ..sim.process import start
from ..sim.resources import Store
from .protocol import (
    NFSERR_INVAL,
    NFSERR_NOENT,
    NFSERR_STALE,
    FileHandle,
    NfsCall,
    NfsProc,
    NfsReply,
)


class DuplicateRequestCache:
    """The knfsd duplicate-request cache (DRC).

    NFS over UDP relies on client retransmission; a retransmitted call
    whose original was already executed must not run twice (WRITE would
    be reapplied after newer writes).  The DRC remembers recently-served
    (client, xid) pairs with enough of the reply to resend it.
    """

    def __init__(self, capacity: int = 2048) -> None:
        self.capacity = capacity
        # The DRC is bounded-FIFO protocol replay state (RFC 1813 / knfsd
        # behavior), not a block-recency cache: entries age out strictly
        # by arrival order and a lookup must NOT refresh them.
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()  # check: ignore[cache-discipline] -- FIFO replay cache, not recency
        self.hits = 0
        #: requests currently executing: duplicates arriving meanwhile are
        #: dropped (the client's next retransmission finds the reply).
        self.in_progress: set = set()

    def key(self, dgram: Datagram) -> tuple:
        return (dgram.src.ip, dgram.src.port, dgram.message.xid)

    def lookup(self, dgram: Datagram):
        entry = self._entries.get(self.key(dgram))
        if entry is not None:
            self.hits += 1
        return entry

    def remember(self, dgram: Datagram, reply, data, is_metadata) -> None:
        self._entries[self.key(dgram)] = (reply, data, is_metadata)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class NfsServer:
    """An NFS server bound to one or more of its host's IPs."""

    def __init__(self, host: Host, vfs: VFS, n_daemons: int,
                 discipline: CopyDiscipline = CopyDiscipline.PHYSICAL,
                 port: int = NFS_PORT) -> None:
        self.host = host
        self.vfs = vfs
        self.n_daemons = n_daemons
        self.discipline = discipline
        self.port = port
        self.requests_served = 0
        self.drc = DuplicateRequestCache()
        #: server-side READ service time (queue wait excluded): the
        #:  distribution behind the paper's latency argument.
        self._read_latency = host.counters.registry.histogram(
            "nfs.read.latency", unit="s")
        self._write_latency = host.counters.registry.histogram(
            "nfs.write.latency", unit="s")
        self._queue: Store = Store(host.sim, name="nfsd-queue")
        self._handlers = {
            NfsProc.NULL: self._do_null,
            NfsProc.GETATTR: self._do_getattr,
            NfsProc.SETATTR: self._do_setattr,
            NfsProc.LOOKUP: self._do_lookup,
            NfsProc.ACCESS: self._do_getattr,
            NfsProc.READ: self._do_read,
            NfsProc.WRITE: self._do_write,
            NfsProc.CREATE: self._do_create,
            NfsProc.REMOVE: self._do_remove,
            NfsProc.READDIR: self._do_readdir,
            NfsProc.FSSTAT: self._do_null,
            NfsProc.COMMIT: self._do_commit,
        }
        host.stack.udp_bind(port, self._enqueue)
        for i in range(n_daemons):
            start(host.sim, self._daemon_loop(), name=f"nfsd-{i}")

    # -- request intake ------------------------------------------------------

    def _enqueue(self, dgram: Datagram) -> Generator[Event, Any, None]:
        self._queue.put(dgram)
        return
        yield  # pragma: no cover - generator marker

    def _daemon_loop(self) -> Generator[Event, Any, None]:
        while True:
            dgram = yield self._queue.get()
            yield from self._handle(dgram)
            self.requests_served += 1

    # -- dispatch -------------------------------------------------------------

    def _handle(self, dgram: Datagram) -> Generator[Event, Any, None]:
        call = dgram.message
        if not isinstance(call, NfsCall):
            raise SimulationError(f"NFS server got {call!r}")
        costs = self.host.costs
        yield from self.host.acct.compute(
            costs.daemon_wakeup_ns, "nfsd.wakeup")
        yield from self.host.acct.compute(costs.rpc_ns, "rpc.decode")
        cached = self.drc.lookup(dgram)
        if cached is not None:
            # Retransmitted request: replay the reply, never re-execute.
            reply, data, is_metadata = cached
            self.host.counters.add("nfs.drc_hit")
            yield from self._reply(dgram, reply, data=data,
                                   is_metadata=is_metadata, remember=False)
            return
        key = self.drc.key(dgram)
        if key in self.drc.in_progress:
            # Duplicate of a request another daemon is executing: drop it;
            # the client's next retransmission will hit the DRC.
            self.host.counters.add("nfs.drc_in_progress_drop")
            return
        self.drc.in_progress.add(key)
        try:
            yield from self._dispatch(dgram, call)
        finally:
            self.drc.in_progress.discard(key)

    def _dispatch(self, dgram: Datagram, call: NfsCall
                  ) -> Generator[Event, Any, None]:
        costs = self.host.costs
        t0 = self.host.sim.now
        yield from self.host.acct.compute(costs.nfs_op_ns, "nfs.op")
        if call.is_metadata:
            yield from self.host.acct.compute(costs.nfs_meta_op_ns, "nfs.meta")

        if call.fh is not None and \
                self.vfs.image.is_stale(call.fh.ino, call.fh.generation):
            yield from self._reply(
                dgram, NfsReply(call.xid, call.proc, status=NFSERR_STALE))
            return

        handler = self._handlers.get(call.proc)
        if handler is None:
            raise SimulationError(f"unhandled NFS proc {call.proc}")
        yield from handler(dgram, call)
        elapsed = self.host.sim.now - t0
        if call.proc is NfsProc.READ:
            self._read_latency.record(elapsed)
        elif call.proc is NfsProc.WRITE:
            self._write_latency.record(elapsed)
        bus = self.host.sim.trace
        if bus.enabled:
            bus.complete(f"nfs.{call.proc.name.lower()}", t0, cat="nfs",
                         tid=bus.tid_for(self.host.name), xid=call.xid,
                         count=call.count, client=str(dgram.src))

    def _reply(self, dgram: Datagram, reply: NfsReply,
               data: Optional[Payload] = None,
               is_metadata: bool = True,
               remember: bool = True) -> Generator[Event, Any, None]:
        """Send a reply back out of the NIC the request arrived on."""
        yield from self.host.acct.compute(
            self.host.costs.rpc_ns, "rpc.encode")
        data = data if data is not None else BytesPayload(b"")
        if remember:
            self.drc.remember(dgram, reply, data, is_metadata)
        yield from self.host.stack.udp_send(
            src_ip=dgram.dst.ip, src_port=self.port, dst=dgram.src,
            message=reply, data=data,
            header=JunkPayload(reply.header_size),
            discipline=self.discipline, is_metadata=is_metadata)

    # -- procedures ---------------------------------------------------------------

    def _do_null(self, dgram: Datagram, call: NfsCall
                 ) -> Generator[Event, Any, None]:
        yield from self._reply(dgram, NfsReply(call.xid, call.proc))

    def _do_getattr(self, dgram: Datagram, call: NfsCall
                    ) -> Generator[Event, Any, None]:
        inode = self.vfs.image.inode(call.fh.ino)
        yield from self.vfs.read_inode_metadata(inode.ino)
        yield from self._reply(
            dgram, NfsReply(call.xid, call.proc, size=inode.size))

    def _do_setattr(self, dgram: Datagram, call: NfsCall
                    ) -> Generator[Event, Any, None]:
        inode = self.vfs.image.inode(call.fh.ino)
        if call.new_size is not None:
            if not 0 <= call.new_size <= inode.size:
                yield from self._reply(
                    dgram, NfsReply(call.xid, call.proc,
                                    status=NFSERR_INVAL))
                return
            yield from self.vfs.truncate(inode, call.new_size)
        else:
            yield from self.vfs.read_inode_metadata(inode.ino)
        yield from self._reply(
            dgram, NfsReply(call.xid, call.proc, size=inode.size))

    def _do_remove(self, dgram: Datagram, call: NfsCall
                   ) -> Generator[Event, Any, None]:
        try:
            inode = self.vfs.image.lookup(call.name)
        except FileNotFoundError:
            yield from self._reply(
                dgram, NfsReply(call.xid, call.proc, status=NFSERR_NOENT))
            return
        yield from self.vfs.remove(inode)
        self.vfs.image.remove_file(call.name)
        yield from self._reply(dgram, NfsReply(call.xid, call.proc))

    def _do_lookup(self, dgram: Datagram, call: NfsCall
                   ) -> Generator[Event, Any, None]:
        try:
            inode = self.vfs.image.lookup(call.name)
        except FileNotFoundError:
            yield from self._reply(
                dgram, NfsReply(call.xid, call.proc, status=2))
            return
        yield from self.vfs.read_dir_metadata(call.name)
        yield from self.vfs.read_inode_metadata(inode.ino)
        reply = NfsReply(call.xid, call.proc,
                         fh=FileHandle(inode.ino, inode.generation),
                         size=inode.size)
        yield from self._reply(dgram, reply)

    def _do_read(self, dgram: Datagram, call: NfsCall
                 ) -> Generator[Event, Any, None]:
        inode = self.vfs.image.inode(call.fh.ino)
        count = min(call.count, inode.size - call.offset)
        if count <= 0:
            yield from self._reply(
                dgram, NfsReply(call.xid, call.proc, status=22))
            return
        payload = yield from self.vfs.read(inode, call.offset, count)
        reply = NfsReply(call.xid, call.proc, count=count)
        yield from self._reply(dgram, reply, data=payload, is_metadata=False)

    def _do_write(self, dgram: Datagram, call: NfsCall
                  ) -> Generator[Event, Any, None]:
        inode = self.vfs.image.inode(call.fh.ino)
        data = dgram.keyed_payload
        if data is None:
            whole = dgram.chain.payload()
            data = whole.slice(call.header_size,
                               whole.length - call.header_size)
        if data.length != call.count:
            raise SimulationError(
                f"WRITE xid {call.xid}: payload {data.length} != "
                f"count {call.count}")
        yield from self.vfs.write(inode, call.offset, data)
        yield from self._reply(
            dgram, NfsReply(call.xid, call.proc, count=call.count))

    def _do_create(self, dgram: Datagram, call: NfsCall
                   ) -> Generator[Event, Any, None]:
        try:
            inode = self.vfs.image.create_file(call.name, call.count)
        except ValueError:
            inode = self.vfs.image.lookup(call.name)
        yield from self.vfs.read_dir_metadata(call.name)
        yield from self.vfs.read_inode_metadata(inode.ino)
        reply = NfsReply(call.xid, call.proc,
                         fh=FileHandle(inode.ino, inode.generation),
                         size=inode.size)
        yield from self._reply(dgram, reply)

    def _do_readdir(self, dgram: Datagram, call: NfsCall
                    ) -> Generator[Event, Any, None]:
        yield from self.vfs.read_dir_metadata(call.name or "")
        # Directory listings are metadata payload: physically copied.
        listing = JunkPayload(min(4096, 64 * max(1, len(self.vfs.image.by_name))))
        yield from self.host.acct.physical_copy(
            listing.length, "readdir", is_metadata=True)
        yield from self._reply(dgram, NfsReply(call.xid, call.proc),
                               data=listing)

    def _do_commit(self, dgram: Datagram, call: NfsCall
                   ) -> Generator[Event, Any, None]:
        inode = self.vfs.image.inode(call.fh.ino)
        first = call.offset // self.vfs.block_size
        nblocks = max(1, -(-max(call.count, 1) // self.vfs.block_size))
        for b in range(first, min(first + nblocks, inode.nblocks)):
            yield from self.vfs.flush_lbn(inode.block_lbn(b))
        yield from self._reply(dgram, NfsReply(call.xid, call.proc))


class FlushDaemon:
    """bdflush/kupdated analog: periodically writes back dirty blocks."""

    def __init__(self, vfs: VFS, interval_s: float,
                 max_blocks_per_pass: int = 64) -> None:
        self.vfs = vfs
        self.interval_s = interval_s
        self.max_blocks_per_pass = max_blocks_per_pass
        self.passes = 0
        self._stopped = False
        start(vfs.host.sim, self._loop(), name="flushd")

    def stop(self) -> None:
        self._stopped = True

    def _loop(self) -> Generator[Event, Any, None]:
        while not self._stopped:
            yield self.interval_s  # plain delay: no Event, one dispatch
            yield from self.vfs.flush_oldest(self.max_blocks_per_pass)
            self.passes += 1
