"""In-kernel network stack: UDP datagrams and simplified TCP.

The stack charges protocol CPU costs (per frame, per datagram, per
segment), applies the host's TX/RX hook chains (where an NCache module
plugs in, "between the network stack and the Ethernet device driver",
§4.1), performs the socket-boundary data movement under a caller-chosen
:class:`~repro.copymodel.accounting.CopyDiscipline`, and hands bursts to
NICs.

TCP is message-oriented and lossless: the testbed LAN never drops, and the
paper's results do not involve loss recovery.  What *is* modelled, because
it shapes the kHTTPd numbers (§5.5: "the per-packet overhead of HTTP is
higher than that of NFS because HTTP runs on TCP"), is the per-segment CPU
cost and the ACK traffic in both directions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, TYPE_CHECKING

from ..copymodel.accounting import CopyDiscipline
from ..sim.engine import Event, SimulationError
from ..sim.process import start
from .addresses import Endpoint
from .buffer import (
    EMPTY_PAYLOAD,
    BufferChain,
    JunkPayload,
    NetBuffer,
    Payload,
    PlaceholderPayload,
    concat,
    expand_segments,
    flatten_payload,
)
from .headers import IPv4Header, TCPHeader, UDPHeader
from .network import NIC, Datagram

if TYPE_CHECKING:
    from .host import Host

#: Handler for an inbound UDP datagram (see :meth:`NetworkStack.udp_bind`).
UdpHandler = Callable[[Datagram], Optional[Generator]]

#: Handler for an inbound TCP message on an established connection.
TcpHandler = Callable[["TCPConnection", Datagram], Optional[Generator]]

_ACK_WIRE_BYTES = 64 + 38  # minimal frame + wire overhead


def count_placeholder_keys(payload: Payload) -> int:
    """Number of key-carrying placeholder fragments inside ``payload``."""
    n = 0
    for leaf in flatten_payload(payload):
        if isinstance(leaf, PlaceholderPayload):
            n += 1
    return n


class NetworkStack:
    """One host's transport layer."""

    def __init__(self, host: "Host") -> None:
        self.host = host
        self.sim = host.sim
        self._udp_handlers: Dict[int, UdpHandler] = {}
        self._tcp_listeners: Dict[int, Callable[["TCPConnection"], None]] = {}
        self._connections: Dict[tuple, "TCPConnection"] = {}
        self._flows: Dict[tuple, tuple] = {}  # see _flow_headers

    # ------------------------------------------------------------------
    # UDP
    # ------------------------------------------------------------------

    def udp_bind(self, port: int, handler: UdpHandler) -> None:
        """Deliver datagrams for ``port`` to ``handler(dgram)``.

        The handler is called at receive time.  If it returns a
        generator (it waits on something) that runs as a process;
        a plain function that returns ``None`` costs no process.
        """
        if port in self._udp_handlers:
            raise SimulationError(f"UDP port {port} already bound")
        self._udp_handlers[port] = handler

    def udp_send(self, src_ip: str, src_port: int, dst: Endpoint,
                 message: Any, data: Payload,
                 header: Optional[Payload] = None,
                 discipline: CopyDiscipline = CopyDiscipline.PHYSICAL,
                 is_metadata: bool = False) -> Generator[Event, Any, Datagram]:
        """Send one UDP datagram; returns after CPU work is charged.

        ``header`` is the application-protocol header part (always built
        and physically handled — it is small); ``data`` is the bulk part
        moved under ``discipline``.
        """
        costs = self.host.costs
        return (yield from self._transmit(
            "udp", Endpoint(src_ip, src_port), dst, message, data, header,
            discipline, is_metadata,
            frames=costs.udp_frames, wire_bytes=costs.udp_wire_bytes,
            frame_ns=costs.packet_tx_ns, message_ns=costs.udp_datagram_ns,
            frag_size=costs.udp_fragment_payload))

    # ------------------------------------------------------------------
    # TCP
    # ------------------------------------------------------------------

    def tcp_listen(self, port: int,
                   acceptor: Callable[["TCPConnection"], None]) -> None:
        """Register ``acceptor(conn)``, called for each new connection.

        The acceptor must set ``conn.on_message`` before returning; it
        is called per message under :meth:`udp_bind`'s handler contract.
        """
        if port in self._tcp_listeners:
            raise SimulationError(f"TCP port {port} already listening")
        self._tcp_listeners[port] = acceptor

    def tcp_connect(self, src_ip: str, src_port: int, dst: Endpoint
                    ) -> Generator[Event, Any, "TCPConnection"]:
        """Three-way handshake; returns the established connection."""
        local = Endpoint(src_ip, src_port)
        conn = TCPConnection(self, local, dst)
        self._connections[(local, dst)] = conn
        costs = self.host.costs
        yield from self.host.acct.compute(costs.tcp_segment_ns, "tcp.connect")
        syn = Datagram(protocol="tcp", src=local, dst=dst, message=None,
                       chain=BufferChain(), n_frames=1,
                       wire_bytes=_ACK_WIRE_BYTES, tcp="syn")
        nic = self.host.nic_for_ip(src_ip)
        nic.send(syn)
        yield conn.established
        return conn

    # ------------------------------------------------------------------
    # Receive path (called by the Network when frames arrive)
    # ------------------------------------------------------------------

    def receive(self, nic: NIC, dgram: Datagram) -> None:
        start(self.sim, self._rx_process(nic, dgram), name="rx")

    def _rx_process(self, nic: NIC, dgram: Datagram
                    ) -> Generator[Event, Any, None]:
        costs = self.host.costs
        acct = self.host.acct
        kind = dgram.tcp
        if kind == "ack":
            yield from acct.compute(
                dgram.n_acks * costs.tcp_ack_ns, "tcp.ack_rx")
            return
        if kind in ("syn", "synack"):
            yield from acct.compute(costs.tcp_segment_ns, "tcp.connect")
            self._handle_handshake(nic, dgram)
            return

        if dgram.lazy_frag is None and (self.host._rx_hooks
                                        or not self.host.checksum_offload):
            # A chain an NCache substituted: compact chunks ride in it as
            # one segment-lazy descriptor each.  This host looks at the
            # buffers one by one — an RX hook re-chunks them, software
            # checksumming counts them — so it gets the per-segment
            # trains, before checksum marking.  A lazy chain stays one
            # buffer: its train is ``Datagram.rx_train``.
            dgram.chain = BufferChain(expand_segments(dgram.chain.buffers))
        bus = self.sim.trace
        if bus.enabled:
            bus.emit("net.receive", cat="net",
                     tid=bus.tid_for(self.host.name),
                     proto=dgram.protocol, src=str(dgram.src),
                     frames=dgram.n_frames, wire_bytes=dgram.wire_bytes)
        rx_ns = dgram.n_frames * costs.packet_rx_ns
        if dgram.protocol == "udp":
            proto_ns, proto_cat = costs.udp_datagram_ns, "udp.rx"
        else:
            proto_ns, proto_cat = (
                dgram.n_frames * costs.tcp_segment_ns, "tcp.rx")
        # One CPU hold for the whole train, booked per category.
        yield from acct.charge_ns(
            acct.note_compute(rx_ns, "net.rx")
            + acct.note_compute(proto_ns, proto_cat))
        if self.host.checksum_offload:
            # Hardware-verified: just mark the checksums known (what a
            # cached chunk later inherits when its buffers are re-sent).
            for buf in dgram.chain:
                buf.csum_known = True
        else:
            yield from self._software_checksum_rx(dgram)
        if self.host._rx_hooks:
            dgram = yield from self.host.run_rx_hooks(dgram)

        if dgram.protocol == "tcp":
            self._ack(nic, dgram)
            conn = self._connections.get((dgram.dst, dgram.src))
            if conn is None:
                raise SimulationError(
                    f"TCP data for unknown connection {dgram.src}->{dgram.dst}")
            if conn.on_message is None:
                raise SimulationError(
                    f"connection {conn.local}->{conn.remote} has no handler")
            gen = conn.on_message(conn, dgram)
        else:
            handler = self._udp_handlers.get(dgram.dst.port)
            if handler is None:
                self.host.counters.add("udp.dropped")
                return
            gen = handler(dgram)
        if gen is not None:
            start(self.sim, gen, name=f"{dgram.protocol}-handler")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _transmit(self, protocol: str, src: Endpoint, dst: Endpoint,
                  message: Any, data: Payload, header: Optional[Payload],
                  discipline: CopyDiscipline, is_metadata: bool, *,
                  frames: Callable[[int], int],
                  wire_bytes: Callable[[int], int],
                  frame_ns: float, message_ns: float, frag_size: int
                  ) -> Generator[Event, Any, Datagram]:
        """The transmit sequence both transports run.

        Socket move-out, one CPU hold for the packet train, a lazy
        single-buffer chain, the TX hooks, checksum, trace, NIC.  The
        callers supply their frame arithmetic: ``frames``/``wire_bytes``
        of a message size, the CPU cost per frame and per message, and
        the fragment size a receiver would see.
        """
        host = self.host
        acct = host.acct
        header = header if header is not None else EMPTY_PAYLOAD
        moved, move_ns = self._socket_move(data, discipline, is_metadata)
        message_bytes = header.length + moved.length
        n_frames = frames(message_bytes)
        # One CPU hold for the whole train: socket move + per-frame TX
        # costs, booked separately, executed together.
        yield from acct.charge_ns(move_ns + acct.note_compute(
            n_frames * frame_ns + message_ns, "net.tx"))
        # Lazy fragmentation: the datagram carries one buffer holding the
        # whole payload, and ``lazy_frag`` records the fragment size.
        # A receiver that caches wire buffers (an NCache host) carves
        # chunks from the fragment sizes, which are arithmetic over
        # ``lazy_frag`` and the length (``Datagram.rx_train``); every
        # other consumer reassembles the payload anyway, and frame/wire
        # accounting is arithmetic too.  A substituting TX
        # hook replaces the chain wholesale, and sees each block's
        # placeholder unsplit, so fragmenting before the hooks would be
        # pure wasted work.
        chain = BufferChain([NetBuffer(
            payload=concat([header, moved]),
            headers=list(self._flow_headers(src.ip, src.port, dst,
                                            protocol)),
            flavor=host.buffer_flavor)])
        dgram = Datagram(protocol=protocol, src=src, dst=dst,
                         message=message, chain=chain, n_frames=n_frames,
                         wire_bytes=wire_bytes(message_bytes))
        # No-op guards: most hosts have no hooks and offload checksums,
        # and this path runs per datagram — skip the generator plumbing.
        if host._tx_hooks:
            dgram = yield from host.run_tx_hooks(dgram)
        if dgram.chain is chain:
            dgram.lazy_frag = frag_size
        if not host.checksum_offload:
            yield from self._software_checksum_tx(dgram.chain)
        bus = self.sim.trace
        if bus.enabled:
            bus.emit("net.send", cat="net", tid=bus.tid_for(host.name),
                     proto=protocol, dst=str(dst), frames=dgram.n_frames,
                     wire_bytes=dgram.wire_bytes,
                     msg=type(message).__name__)
        host.nic_for_ip(src.ip).send(dgram)
        return dgram

    def _socket_move(self, data: Payload, discipline: CopyDiscipline,
                     is_metadata: bool) -> tuple:
        """The socket-boundary move (application buffer -> network
        buffers): books the movement and returns ``(payload, cpu_ns)``
        for the caller to charge with the rest of the train."""
        acct = self.host.acct
        if data.length == 0:
            return data, 0.0
        if is_metadata or discipline is CopyDiscipline.PHYSICAL:
            ns = acct.note_physical_copy(data.length, "sock_tx", is_metadata)
            return data.physical_copy(), ns
        if discipline is CopyDiscipline.LOGICAL:
            nkeys = max(1, count_placeholder_keys(data))
            ns = acct.note_logical_copy("sock_tx", nkeys, data.length)
            return data, ns
        # ZERO: the copy statement was deleted; junk goes on the wire.
        self.host.counters.add("copies.elided")
        return JunkPayload(data.length), 0.0

    def _flow_headers(self, src_ip: str, src_port: int, dst: Endpoint,
                      proto: str) -> tuple:
        """The flow's ``(ip, transport)`` header objects: immutable, so
        built on its first datagram and shared by every buffer after it,
        each buffer holding its own list over them (§1's pre-built
        headers)."""
        flow = (src_ip, src_port, dst, proto)
        headers = self._flows.get(flow)
        if headers is None:
            transport = UDPHeader if proto == "udp" else TCPHeader
            headers = self._flows[flow] = (
                IPv4Header(src_ip=src_ip, dst_ip=dst.ip, protocol=proto),
                transport(src_port=src_port, dst_port=dst.port))
        return headers

    def _software_checksum_tx(self, chain: BufferChain
                              ) -> Generator[Event, Any, None]:
        """Charge software checksum when the NIC cannot offload it.

        Runs *after* the TX hooks: buffers whose checksum is already known
        — cached network buffers re-emitted by NCache ("inherited from the
        payload's originator", §1) — cost nothing; fresh buffers pay per
        byte.  With offload on (the paper's default) the NIC does the work
        and the CPU pays nothing either way.
        """
        acct = self.host.acct
        ns = 0.0
        for buf in chain:
            if buf.csum_known:
                ns += acct.note_checksum(buf.payload_bytes, cached=True)
            else:
                ns += acct.note_checksum(buf.payload_bytes)
                buf.csum_known = True
        if ns:
            yield from acct.charge_ns(ns)

    def _software_checksum_rx(self, dgram: Datagram
                              ) -> Generator[Event, Any, None]:
        """Verify inbound checksums in software and mark them known.

        Whether verified in hardware (offload) or software, a received
        buffer's checksum is known afterwards — that is what a cached
        chunk later *inherits* when its buffers are re-sent.  A host
        with RX hooks verifies the fragment train its hooks carve.
        """
        acct = self.host.acct
        train = (dgram.rx_train(self.host.buffer_flavor)
                 if self.host._rx_hooks else None)
        sizes = ([buf.payload_bytes for buf in dgram.chain] if train is None
                 else [nbytes for nbytes, _ in train.segments])
        ns = 0.0
        for nbytes in sizes:
            ns += acct.note_checksum(nbytes)
        for buf in dgram.chain:
            buf.csum_known = True
        if ns:
            yield from acct.charge_ns(ns)

    def _handle_handshake(self, nic: NIC, dgram: Datagram) -> None:
        if dgram.tcp == "syn":
            acceptor = self._tcp_listeners.get(dgram.dst.port)
            if acceptor is None:
                raise SimulationError(f"no TCP listener on {dgram.dst}")
            conn = TCPConnection(self, dgram.dst, dgram.src)
            self._connections[(dgram.dst, dgram.src)] = conn
            acceptor(conn)
            conn.established.succeed(conn)
            synack = Datagram(protocol="tcp", src=dgram.dst, dst=dgram.src,
                              message=None, chain=BufferChain(), n_frames=1,
                              wire_bytes=_ACK_WIRE_BYTES, tcp="synack")
            nic.send(synack)
        else:  # synack
            conn = self._connections.get((dgram.dst, dgram.src))
            if conn is not None and not conn.established.triggered:
                conn.established.succeed(conn)

    def _ack(self, nic: NIC, dgram: Datagram) -> None:
        """Send aggregated delayed ACKs for a received data burst."""
        n_acks = max(1, (dgram.n_frames + 1) // 2)
        start(self.sim, self._ack_process(nic, dgram, n_acks), name="tcp-ack")

    def _ack_process(self, nic: NIC, dgram: Datagram, n_acks: int
                     ) -> Generator[Event, Any, None]:
        yield from self.host.acct.compute(
            n_acks * self.host.costs.tcp_ack_ns, "tcp.ack_tx")
        ack = Datagram(protocol="tcp", src=dgram.dst, dst=dgram.src,
                       message=None, chain=BufferChain(), n_frames=n_acks,
                       wire_bytes=n_acks * _ACK_WIRE_BYTES,
                       tcp="ack", n_acks=n_acks)
        nic.send(ack)


class TCPConnection:
    """An established, lossless, message-oriented TCP connection."""

    def __init__(self, stack: NetworkStack, local: Endpoint,
                 remote: Endpoint) -> None:
        self.stack = stack
        self.local = local
        self.remote = remote
        self.established = stack.sim.event()
        #: ``on_message(conn, dgram)``, under ``udp_bind``'s contract
        self.on_message: Optional[TcpHandler] = None

    def send(self, message: Any, data: Payload,
             header: Optional[Payload] = None,
             discipline: CopyDiscipline = CopyDiscipline.PHYSICAL,
             is_metadata: bool = False
             ) -> Generator[Event, Any, Datagram]:
        """Send one application message over the connection."""
        costs = self.stack.host.costs
        return (yield from self.stack._transmit(
            "tcp", self.local, self.remote, message, data, header,
            discipline, is_metadata,
            frames=costs.tcp_segments, wire_bytes=costs.tcp_wire_bytes,
            frame_ns=costs.packet_tx_ns + costs.tcp_segment_ns,
            message_ns=0.0, frag_size=costs.tcp_mss))

    def __repr__(self) -> str:
        return f"TCPConnection({self.local} -> {self.remote})"
