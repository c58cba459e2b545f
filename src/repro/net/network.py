"""Physical network: NICs, links and a non-blocking switch.

The testbed topology is the paper's: every host plugs one or more gigabit
NICs into a NetGear switch.  Each NIC gets a full-duplex pair of
:class:`~repro.sim.resources.Link` objects (one per direction).  The switch
backplane is non-blocking; only the per-port links contend.

Transmission granularity is a whole :class:`Datagram` burst: the uplink is
occupied for the burst's serialization time, then the destination downlink
is.  Per-frame CPU costs are aggregated arithmetically by the socket layer
(:mod:`repro.net.stack`); this keeps the event count O(messages), not
O(frames), without changing which resource saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, TYPE_CHECKING

from ..sim.engine import Event, SimulationError, Simulator
from ..sim.resources import Link
from .addresses import Endpoint
from .buffer import BufferChain, BufferFlavor, Payload, SegmentShape

if TYPE_CHECKING:
    from .host import Host


@dataclass
class Datagram:
    """One transport-level message in flight.

    ``chain`` holds the payload-bearing network buffers exactly as the
    receiving stack will see them (fragment-sized); ``message`` carries the
    parsed application object (an NFS call, an iSCSI PDU, ...), which the
    simulation passes alongside to avoid re-parsing.  ``n_frames`` and
    ``wire_bytes`` are precomputed from the cost model.

    ``lazy_frag`` is set when ``chain`` is still the sender's single
    unfragmented buffer: it is the fragment payload size the sender's
    transport cuts.  No host clears it or builds the fragments: one that
    caches wire buffers reads the train off it (:meth:`rx_train`,
    DESIGN.md §11).  A chain an NCache substituted is never marked; it
    may instead hold segment-lazy buffers (``NetBuffer.segs``), which the
    receive path expands for a receiver that looks at them.

    ``tcp`` marks a TCP control burst (``"syn"`` | ``"synack"`` |
    ``"ack"``; ``n_acks`` delayed ACKs aggregated in an ``"ack"``).
    ``keyed_payload`` is the seam between an NCache RX hook and the
    protocol handler above it: the key-carrying placeholder the hook
    cached the wire data under.
    """

    protocol: str  # "udp" | "tcp"
    src: Endpoint
    dst: Endpoint
    message: Any
    chain: BufferChain
    n_frames: int
    wire_bytes: int
    lazy_frag: Optional[int] = None
    tcp: Optional[str] = None
    n_acks: int = 0
    keyed_payload: Optional[Payload] = None

    @property
    def payload_bytes(self) -> int:
        return self.chain.payload_bytes

    def rx_train(self, flavor: BufferFlavor) -> Optional[SegmentShape]:
        """The fragment train of a lazy datagram at a receiver whose
        buffers are ``flavor``, every checksum known (receive verifies
        or marks them before any hook runs); ``None`` when ``chain`` is
        the train already (not lazy, or an empty payload)."""
        length = self.chain.payload_bytes
        if self.lazy_frag is None or not length:
            return None
        return SegmentShape.uniform(length, self.lazy_frag, True, flavor)


class NIC:
    """A network interface: two links and a reference to its host."""

    def __init__(self, sim: Simulator, host: "Host", ip: str,
                 bandwidth_bps: float, latency_s: float,
                 checksum_offload: bool = True) -> None:
        self.sim = sim
        self.host = host
        self.ip = ip
        self.checksum_offload = checksum_offload
        self.tx_link = Link(sim, bandwidth_bps, latency_s, name=f"{ip}.tx")
        self.rx_link = Link(sim, bandwidth_bps, latency_s, name=f"{ip}.rx")
        self.network: Optional["Network"] = None

    def transmit(self, dgram: Datagram) -> Generator[Event, Any, None]:
        """Serialize the burst onto the wire and hand it to the switch."""
        if self.network is None:
            raise SimulationError(f"NIC {self.ip} not attached to a network")
        yield from self.tx_link.transmit(dgram.wire_bytes)
        self.network.forward(dgram)

    def send(self, dgram: Datagram) -> None:
        """Fire-and-forget :meth:`transmit`: the callback form.

        The stack never waits on a transmit, so the per-datagram hot
        path goes through the link's callback API — same serialization
        and FIFO contention, no Process per datagram.
        """
        if self.network is None:
            raise SimulationError(f"NIC {self.ip} not attached to a network")
        self.tx_link.transmit_then(dgram.wire_bytes,
                                   self.network.forward, dgram)


class Network:
    """The switch: routes datagrams between attached NICs by IP.

    Loss injection: ``set_loss(rate, seed)`` drops that fraction of UDP
    datagrams (whole messages, matching the burst granularity of the
    model).  TCP legs stay lossless — the iSCSI session rides a reliable
    transport and TCP recovery is out of scope (DESIGN.md §9); loss is an
    NFS/UDP phenomenon, which is exactly where the paper's protocols can
    experience it.
    """

    def __init__(self, sim: Simulator, name: str = "switch") -> None:
        self.sim = sim
        self.name = name
        self._ports: Dict[str, NIC] = {}
        self._loss_rate = 0.0
        self._loss_rng = None
        self.dropped = 0
        #: IPs administratively dark (fleet crash/leave fail-stop model):
        #: UDP datagrams from or to a down IP vanish at the switch.  TCP
        #: legs (the iSCSI session) stay connected, mirroring the loss
        #: model above — a "crashed" application server goes silent to
        #: its clients and peers while its in-flight backend I/O drains.
        self._down_ips: set = set()
        self.fail_stop_drops = 0

    def set_loss(self, rate: float, seed: int = 0) -> None:
        """Drop ``rate`` of UDP datagrams, deterministically per seed."""
        if not 0.0 <= rate < 1.0:
            raise SimulationError(f"loss rate {rate} outside [0, 1)")
        from ..sim.rng import substream

        self._loss_rate = rate
        self._loss_rng = substream(seed, "loss") if rate > 0 else None

    def set_port_down(self, ip: str, down: bool = True) -> None:
        """Mark ``ip`` dark (or bring it back); unknown IPs are fine —
        the port may attach later (a joining node)."""
        if down:
            self._down_ips.add(ip)
        else:
            self._down_ips.discard(ip)

    def port_is_down(self, ip: str) -> bool:
        return ip in self._down_ips

    def attach(self, nic: NIC) -> None:
        if nic.ip in self._ports:
            raise SimulationError(f"duplicate IP {nic.ip!r}")
        self._ports[nic.ip] = nic
        nic.network = self

    def nic_for(self, ip: str) -> NIC:
        nic = self._ports.get(ip)
        if nic is None:
            raise SimulationError(f"no route to {ip!r}")
        return nic

    def forward(self, dgram: Datagram) -> None:
        """Queue the burst on the destination port's downlink."""
        if self._loss_rng is not None and dgram.protocol == "udp" \
                and self._loss_rng.random() < self._loss_rate:
            self.dropped += 1
            return
        if self._down_ips and dgram.protocol == "udp" \
                and (dgram.src.ip in self._down_ips
                     or dgram.dst.ip in self._down_ips):
            self.fail_stop_drops += 1
            return
        dst_nic = self.nic_for(dgram.dst.ip)
        dst_nic.rx_link.transmit_then(dgram.wire_bytes, self._arrive,
                                      dst_nic, dgram)

    @staticmethod
    def _arrive(nic: NIC, dgram: Datagram) -> None:
        nic.host.stack.receive(nic, dgram)
