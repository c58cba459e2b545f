"""A host: CPU(s), NICs, a network stack, and hook points for NCache.

The TX/RX hook chains model the paper's insertion point for the NCache
module: "inserted into the layer between the network stack and the
Ethernet device driver to perform on-the-fly packet caching and
replacement" (§4.1).  Hooks are generator functions so they can charge CPU
costs; each receives the datagram and returns the (possibly rewritten)
datagram to pass on.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..copymodel.accounting import CopyAccountant
from ..copymodel.costs import DEFAULT_COSTS, CostModel
from ..sim.engine import Event, SimulationError, Simulator
from ..sim.resources import CPU
from ..sim.stats import CounterSet
from .buffer import BufferFlavor
from .network import NIC, Datagram, Network
from .stack import NetworkStack

#: TX hook: ``hook(dgram) -> dgram`` (generator).
TxHook = Callable[[Datagram], Generator]
#: RX hook: ``hook(dgram) -> dgram`` (generator).
RxHook = Callable[[Datagram], Generator]


class Host:
    """One machine in the testbed."""

    def __init__(self, sim: Simulator, name: str,
                 costs: CostModel = DEFAULT_COSTS,
                 cores: int = 1,
                 checksum_offload: bool = True,
                 buffer_flavor: BufferFlavor = BufferFlavor.SK_BUFF) -> None:
        self.sim = sim
        self.name = name
        self.costs = costs
        self.checksum_offload = checksum_offload
        self.buffer_flavor = buffer_flavor
        self.cpu = CPU(sim, cores=cores, name=f"{name}.cpu")
        self.counters = CounterSet()
        self.acct = CopyAccountant(self.cpu, costs, self.counters, owner=name)
        self.stack = NetworkStack(self)
        self.nics: List[NIC] = []
        self._tx_hooks: List[TxHook] = []
        self._rx_hooks: List[RxHook] = []

    # -- NICs --------------------------------------------------------------

    def add_nic(self, network: Network, ip: str,
                bandwidth_bps: Optional[float] = None,
                latency_s: Optional[float] = None) -> NIC:
        nic = NIC(self.sim, self, ip,
                  bandwidth_bps if bandwidth_bps is not None
                  else self.costs.link_bandwidth_bps,
                  latency_s if latency_s is not None
                  else self.costs.link_latency_s,
                  checksum_offload=self.checksum_offload)
        network.attach(nic)
        self.nics.append(nic)
        return nic

    def nic_for_ip(self, ip: str) -> NIC:
        for nic in self.nics:
            if nic.ip == ip:
                return nic
        raise SimulationError(f"host {self.name} has no NIC with IP {ip!r}")

    @property
    def ip(self) -> str:
        """Primary IP (first NIC)."""
        if not self.nics:
            raise SimulationError(f"host {self.name} has no NICs")
        return self.nics[0].ip

    # -- hook chains ---------------------------------------------------------

    def add_tx_hook(self, hook: TxHook) -> None:
        self._tx_hooks.append(hook)

    def add_rx_hook(self, hook: RxHook) -> None:
        self._rx_hooks.append(hook)

    def run_tx_hooks(self, dgram: Datagram
                     ) -> Generator[Event, Any, Datagram]:
        for hook in self._tx_hooks:
            dgram = yield from hook(dgram)
        return dgram

    def run_rx_hooks(self, dgram: Datagram
                     ) -> Generator[Event, Any, Datagram]:
        for hook in self._rx_hooks:
            dgram = yield from hook(dgram)
        return dgram

    def __repr__(self) -> str:
        return f"Host({self.name}, nics={[n.ip for n in self.nics]})"
