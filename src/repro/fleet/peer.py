"""Cooperative caching: the peer cache-fetch service and its client.

Each fleet node runs a :class:`PeerCacheService` (answering probes from
its own LBN cache, zero-copy via TX substitution) and a
:class:`PeerCacheClient` (probing the block group's other owners on a
local NCache miss).  :func:`cooperative_interceptor` chains the two
behind the initiator's ``read_interceptor`` seam: local NCache first,
then peers, then the wire to iSCSI — the paper's second-level cache
(§3.4) stretched across the fleet.

All fleet counters live in the owning host's registry under ``fleet.*``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..core.keys import KeyedPayload, LbnKey
from ..net.addresses import Endpoint, PEER_CLIENT_PORT, PEER_PORT
from ..net.buffer import BytesPayload, JunkPayload, Payload, concat
from ..net.network import Datagram
from ..rpc.messages import XidMatcher
from ..rpc.peer import (PeerFetchCall, PeerFetchReply, PeerPushCall,
                        PeerPushReply)
from ..sim.engine import Event, SimulationError

#: Sentinel delivered to a pending reply waiter when its RTO expires.
_RTO_EXPIRED = object()

#: ``fn(lbn) -> peer endpoints to probe``, owner order, self excluded.
PeersForFn = Callable[[int], List[Endpoint]]


class PeerCacheService:
    """Answers peer probes from this node's network-centric cache."""

    def __init__(self, testbed: Any) -> None:
        if testbed.ncache is None:
            raise SimulationError("peer service needs an NCache module")
        self.testbed = testbed
        self.host = testbed.server_host
        self.module = testbed.ncache
        self.discipline = testbed.config.mode.discipline
        self.host.stack.udp_bind(PEER_PORT, self._handle)

    def _handle(self, dgram: Datagram) -> Generator[Event, Any, None]:
        call = dgram.message
        if isinstance(call, PeerPushCall):
            yield from self._handle_push(dgram, call)
            return
        if not isinstance(call, PeerFetchCall):
            raise SimulationError(f"peer service got {call!r}")
        host = self.host
        store = self.module.store
        costs = host.costs
        yield from host.acct.compute(
            call.nblocks * costs.ncache_lookup_ns, "fleet.peer_lookup")
        keys = [LbnKey(call.lun, call.lbn + i) for i in range(call.nblocks)]
        chunks = [store.lookup_lbn(key) for key in keys]
        if all(chunk is not None for chunk in chunks):
            host.counters.add("fleet.peer_served_hit")
            yield from host.acct.compute(
                call.nblocks * costs.ncache_mgmt_ns, "fleet.peer_serve")
            data: Payload = concat([
                KeyedPayload(chunk.length, lbn_key=key)
                for key, chunk in zip(keys, chunks)])
            reply = PeerFetchReply(call.xid, hit=True, lun=call.lun,
                                   lba=call.lbn, nblocks=call.nblocks)
            is_metadata = False
        else:
            host.counters.add("fleet.peer_served_miss")
            data = BytesPayload(b"")
            reply = PeerFetchReply(call.xid, hit=False, lun=call.lun,
                                   lba=call.lbn, nblocks=0)
            is_metadata = True
        if host.sim.trace.enabled:
            host.sim.trace.emit("fleet.peer_serve", cat="fleet",
                                tid=host.sim.trace.tid_for(host.name),
                                lbn=call.lbn, nblocks=call.nblocks,
                                hit=reply.hit)
        # A hit reply's data part is keyed placeholders; the TX hook
        # substitutes the cached buffers on the way out (zero-copy).
        yield from host.stack.udp_send(
            src_ip=dgram.dst.ip, src_port=PEER_PORT, dst=dgram.src,
            message=reply, data=data,
            header=JunkPayload(reply.header_size),
            discipline=self.discipline, is_metadata=is_metadata)

    def _handle_push(self, dgram: Datagram, call: PeerPushCall
                     ) -> Generator[Event, Any, None]:
        """Acknowledge a drained chunk from a leaving peer.

        The RX hook already classified the push as cacheable data and
        chunked its payload into this node's LBN cache; the service's
        only job is the management charge and the ack.
        """
        host = self.host
        host.counters.add("fleet.peer_push", call.nblocks)
        yield from host.acct.compute(
            call.nblocks * host.costs.ncache_mgmt_ns, "fleet.peer_push")
        reply = PeerPushReply(call.xid)
        yield from host.stack.udp_send(
            src_ip=dgram.dst.ip, src_port=PEER_PORT, dst=dgram.src,
            message=reply, data=BytesPayload(b""),
            header=JunkPayload(reply.header_size),
            discipline=self.discipline, is_metadata=True)


class PeerCacheClient:
    """Probes the other owners of a block group on a local miss."""

    def __init__(self, testbed: Any, peers_for: PeersForFn,
                 rto_s: float = 0.02) -> None:
        if testbed.ncache is None:
            raise SimulationError("peer client needs an NCache module")
        self.host = testbed.server_host
        self.local_ip = testbed.server_ips[0]
        self.lun = testbed.ncache.lun
        self.discipline = testbed.config.mode.discipline
        self.peers_for = peers_for
        self.rto_s = rto_s
        self.matcher = XidMatcher(self.host.sim)
        self.host.stack.udp_bind(PEER_CLIENT_PORT, self._on_reply)

    def _on_reply(self, dgram: Datagram) -> Generator[Event, Any, None]:
        reply = dgram.message
        if not isinstance(reply, (PeerFetchReply, PeerPushReply)):
            raise SimulationError(f"peer client got {reply!r}")
        if self.matcher.is_pending(reply.xid):
            self.matcher.resolve(reply.xid, dgram)
        return
        yield  # pragma: no cover - generator marker

    def _rto_expire(self, xid: int, waiter: Event) -> None:
        if waiter.triggered:
            return  # the reply landed at this exact instant; it wins
        self.matcher.cancel(xid)
        self.host.counters.add("fleet.peer_timeout")
        waiter.succeed(_RTO_EXPIRED)

    def fetch(self, lbn: int, nblocks: int
              ) -> Generator[Event, Any, Optional[Payload]]:
        """Probe peers in owner order; the first full hit wins."""
        for peer in self.peers_for(lbn):
            payload = yield from self._fetch_one(peer, lbn, nblocks)
            if payload is not None:
                return payload
        return None

    def _fetch_one(self, peer: Endpoint, lbn: int, nblocks: int
                   ) -> Generator[Event, Any, Optional[Payload]]:
        host = self.host
        host.counters.add("fleet.peer_probe")
        xid = self.matcher.new_xid()
        call = PeerFetchCall(xid, self.lun, lbn, nblocks)
        waiter = self.matcher.expect(xid)
        yield from host.stack.udp_send(
            src_ip=self.local_ip, src_port=PEER_CLIENT_PORT, dst=peer,
            message=call, data=BytesPayload(b""),
            header=JunkPayload(call.header_size), is_metadata=True)
        timer = host.sim.call_later(self.rto_s, self._rto_expire,
                                    xid, waiter)
        value = yield waiter
        if value is _RTO_EXPIRED:
            return None
        timer.cancel()
        reply = value.message
        if not reply.hit:
            host.counters.add("fleet.peer_miss")
            return None
        # The RX hook already chunked the reply payload into the local
        # LBN cache and left the keyed placeholder, Data-In style.
        payload = value.keyed_payload
        if payload is None:
            host.counters.add("fleet.peer_miss")
            return None
        host.counters.add("fleet.peer_hit")
        host.counters.add("fleet.peer_bytes", payload.length)
        if host.sim.trace.enabled:
            host.sim.trace.emit("fleet.peer_hit", cat="fleet",
                                tid=host.sim.trace.tid_for(host.name),
                                lbn=lbn, nblocks=nblocks, peer=str(peer))
        return payload

    def push(self, peer: Endpoint, lbn: int, nblocks: int, data: Payload
             ) -> Generator[Event, Any, bool]:
        """Hand cached blocks to ``peer`` (graceful-leave drain).

        ``data`` is keyed placeholders over this node's resident chunks;
        the TX hook substitutes the real buffers on the way out.  Waits
        for the ack so the caller knows the chunk landed before it
        detaches; a timeout counts against ``fleet.peer_timeout`` and
        the chunk is simply lost to the fleet (it is clean).
        """
        host = self.host
        xid = self.matcher.new_xid()
        call = PeerPushCall(xid, self.lun, lbn, nblocks)
        waiter = self.matcher.expect(xid)
        yield from host.stack.udp_send(
            src_ip=self.local_ip, src_port=PEER_CLIENT_PORT, dst=peer,
            message=call, data=data,
            header=JunkPayload(call.header_size),
            discipline=self.discipline, is_metadata=False)
        timer = host.sim.call_later(self.rto_s, self._rto_expire,
                                    xid, waiter)
        value = yield waiter
        if value is _RTO_EXPIRED:
            return False
        timer.cancel()
        return True


def cooperative_interceptor(module: Any, client: PeerCacheClient
                            ) -> Callable[..., Generator]:
    """Chain local NCache, then peer probing, behind the read seam."""

    def interceptor(lbn: int, nblocks: int
                    ) -> Generator[Event, Any, Optional[Payload]]:
        payload = yield from module.try_serve_read(lbn, nblocks)
        if payload is not None:
            return payload
        return (yield from client.fetch(lbn, nblocks))

    return interceptor
