"""Metadata-vs-data packet classification (§3.3, §3.5).

The NCache module must decide, below the network stack, which packets
carry cacheable/substitutable regular data.  Each protocol offers a
different hook:

* **NFS** — the RPC procedure: incoming WRITE calls are cached, outgoing
  READ replies are substituted; everything else passes through.
* **iSCSI** — the header alone cannot tell metadata from data; the hint
  comes from the inode type on the associated page structure, which rides
  on the command/response as ``is_metadata``.
* **HTTP** — a pattern scan for ``\\r\\n\\r\\n`` over the head of the
  outgoing stream locates the body; header-only responses pass through.
"""

from __future__ import annotations

import enum

from ..http.messages import HttpResponse, find_body_offset
from ..iscsi.pdu import DataIn, ScsiCommand
from ..net.network import Datagram
from ..nfs.protocol import NfsCall, NfsProc, NfsReply
from ..rpc.peer import PeerFetchReply, PeerPushCall


class RxAction(enum.Enum):
    """What to do with an arriving packet."""

    PASS = "pass"
    CACHE_DATA_IN = "cache_data_in"      # iSCSI read response payload
    CACHE_NFS_WRITE = "cache_nfs_write"  # NFS write request payload


class TxAction(enum.Enum):
    """What to do with a departing packet."""

    PASS = "pass"
    SUBSTITUTE = "substitute"            # NFS read reply / HTTP response
    REMAP_AND_SUBSTITUTE = "remap"       # iSCSI write (FS cache flush)


class PacketClassifier:
    """Stateless protocol-header inspection."""

    def classify_rx(self, dgram: Datagram) -> RxAction:
        message = dgram.message
        if isinstance(message, DataIn):
            if message.status == 0 and not message.is_metadata:
                return RxAction.CACHE_DATA_IN
            return RxAction.PASS
        if isinstance(message, NfsCall) and message.proc is NfsProc.WRITE:
            return RxAction.CACHE_NFS_WRITE
        if isinstance(message, PeerFetchReply) \
                and message.hit and message.nblocks > 0:
            # A peer cache hit is a Data-In in disguise: chunk its
            # payload into the local LBN cache (cooperative caching).
            return RxAction.CACHE_DATA_IN
        if isinstance(message, PeerPushCall):
            # A drained chunk from a leaving peer lands the same way.
            return RxAction.CACHE_DATA_IN
        return RxAction.PASS

    def classify_tx(self, dgram: Datagram) -> TxAction:
        message = dgram.message
        if isinstance(message, NfsReply):
            if message.proc is NfsProc.READ and message.ok:
                return TxAction.SUBSTITUTE
            return TxAction.PASS
        if isinstance(message, HttpResponse):
            if self._http_has_body(dgram, message):
                return TxAction.SUBSTITUTE
            return TxAction.PASS
        if isinstance(message, ScsiCommand) and message.is_write \
                and not message.is_metadata:
            return TxAction.REMAP_AND_SUBSTITUTE
        if isinstance(message, PeerFetchReply) and message.hit:
            # Serving a peer probe: swap the keyed placeholders for the
            # cached buffers, zero-copy out of this node's NCache.
            return TxAction.SUBSTITUTE
        if isinstance(message, PeerPushCall):
            # Draining on leave: same zero-copy substitution outward.
            return TxAction.SUBSTITUTE
        return TxAction.PASS

    @staticmethod
    def _http_has_body(dgram: Datagram, message: HttpResponse) -> bool:
        """Find the body via the ``\\r\\n\\r\\n`` scan (§3.5).

        Only the first packet's header region is materialized — it holds
        real header bytes by construction; the body payload is never
        touched by the scan.
        """
        if not message.ok or message.content_length == 0:
            return False
        if not dgram.chain.buffers:
            return False
        first = dgram.chain.buffers[0]
        head_len = min(first.payload_bytes, message.header_size)
        head = first.payload.slice(0, head_len).materialize()
        return find_body_offset(head) >= 0
