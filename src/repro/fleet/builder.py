"""Composing a wired fleet from a :class:`~repro.servers.spec.ClusterSpec`.

A fleet is N identically-specified testbeds sharing one simulator and
one switch, plus the simulated load balancer: consistent-hash routing
of requests to nodes by the block *group* they touch, and (optionally)
the cooperative-caching peer wiring from :mod:`repro.fleet.peer`.

A single-node cluster takes a fast path — ``spec.testbed.build()``
verbatim, own simulator, no prefix, no peer machinery — so its event
stream is byte-identical to the standalone testbed the spec describes.

**Membership dynamics.**  With dynamics enabled (explicitly via
:meth:`Fleet.enable_dynamics`, or implicitly by installing a non-empty
:class:`~repro.servers.spec.ChurnSchedule`), membership becomes a
first-class simulated event:

* :meth:`Fleet.crash` — fail-stop at the switch: the node's UDP ports
  go dark instantly, in-flight requests to it are rerouted by their
  issuing streams (the per-node ``down_event``), and peer probes to it
  run into the existing RTO timeout instead of hanging.
* :meth:`Fleet.rejoin` — the crashed node returns with a *cold* NCache:
  the store is resized through zero (seeding the policy ghost lists, so
  post-restart misses on previously-hot keys register as ghost hits)
  and the FS buffer cache is cleared; warmup is measured by
  ``fleet.warmup_ops`` until occupancy recovers 90% of its pre-crash
  level.
* :meth:`Fleet.leave` — graceful drain: the node is withdrawn from the
  ring first (no new requests), dirty chunks are written back, clean
  pinned chunks are handed to each block group's new owner over the
  simulated network (:class:`PeerPushCall`), then the ports close.
* :meth:`Fleet.join` — a fresh node is built mid-run on the shared
  simulator/switch, replays the fleet's files, logs into iSCSI, gets
  the cooperative wiring, and enters the ring.

Routing is replication-aware: a block group's requests spread over its
ring owners salted by logical client; when the salted pick is down the
balancer re-salts over the group's *live* owners (widening the ring
walk if the whole owner set is down) and counts a
``fleet.failover_reroute``.  With dynamics off, none of these paths
run — the static fleet's event stream is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..core.keys import KeyedPayload, LbnKey
from ..net.addresses import Endpoint, PEER_PORT
from ..net.network import Network
from ..obs.metrics import MetricsRegistry
from ..servers.config import ServerMode
from ..servers.spec import ChurnSchedule, ClusterSpec, TestbedSpec
from ..servers.testbed import BaseTestbed
from ..sim.engine import Event, SimulationError, Simulator
from ..sim.process import start
from .hashring import HashRing
from .peer import PeerCacheClient, PeerCacheService, cooperative_interceptor

#: Rejoin warmup target: the fraction of pre-crash occupancy at which a
#: rejoined node stops counting as "warming".
WARM_FRACTION = 0.9


@dataclass
class FleetNode:
    """One server position in the fleet."""

    index: int
    testbed: BaseTestbed
    service: Optional[PeerCacheService] = None
    client: Optional[PeerCacheClient] = None
    #: ``up`` | ``down`` (crashed) | ``left`` (gracefully departed).
    status: str = "up"
    #: triggered when the node crashes or finishes leaving, so streams
    #: racing an in-flight request against it can reroute immediately
    #: instead of riding the NFS retransmission schedule.  Only created
    #: when fleet dynamics are enabled.
    down_event: Optional[Event] = field(default=None, repr=False)
    #: rejoined-and-refilling: requests routed here count as warmup ops
    #: until occupancy recovers ``WARM_FRACTION`` of the crash snapshot.
    warming: bool = False
    warm_target_bytes: int = 0

    @property
    def name(self) -> str:
        return f"s{self.index}"


class Fleet:
    """The wired cluster: route requests, measure, aggregate."""

    def __init__(self, spec: ClusterSpec, sim: Simulator, network: Network,
                 nodes: List[FleetNode], ring: HashRing) -> None:
        self.spec = spec
        self.sim = sim
        self.network = network
        self.nodes = nodes
        self.ring = ring
        #: fleet-level declared metrics (routing counts, imbalance gauge,
        #: churn accounting).
        self.metrics = MetricsRegistry()
        self._routed = [self.metrics.counter(f"fleet.routed.n{n.index}")
                        for n in nodes]
        self._imbalance = self.metrics.gauge("fleet.imbalance")
        self._failover = self.metrics.counter("fleet.failover_reroute")
        self._warmup_ops = self.metrics.counter("fleet.warmup_ops")
        self._rebalanced = self.metrics.counter("fleet.rebalance_moved_keys")
        self._drained = self.metrics.counter("fleet.drain_pushed")
        self._retries = self.metrics.counter("fleet.inflight_retry")
        self.block_size = nodes[0].testbed.image.block_size
        self._dynamic = False
        #: files created through :meth:`create_file`, in creation order —
        #: replayed onto joining nodes' images and enumerated for the
        #: rebalance (moved-keys) accounting.
        self._files: List[Tuple[str, int]] = []
        self._groups_cache: Optional[List[int]] = None

    # -- assembly ------------------------------------------------------------

    @property
    def testbeds(self) -> List[BaseTestbed]:
        return [node.testbed for node in self.nodes]

    def __len__(self) -> int:
        return len(self.nodes)

    def create_file(self, name: str, size: int):
        """Create a file on every node's (identical) image."""
        inode = None
        for node in self.nodes:
            inode = node.testbed.image.create_file(name, size)
        self._files.append((name, size))
        self._groups_cache = None
        return inode

    def setup(self) -> None:
        """Establish every node's sessions (iSCSI login etc.)."""
        for node in self.nodes:
            node.testbed.setup()

    # -- membership dynamics -------------------------------------------------

    @property
    def dynamic(self) -> bool:
        return self._dynamic

    def enable_dynamics(self) -> None:
        """Arm the membership machinery (idempotent).

        Must be on *before* load starts if membership will change
        mid-run: streams issued under dynamics race each request against
        the serving node's ``down_event`` so a crash reroutes them
        instead of stranding them on the NFS retransmission schedule.
        """
        if self._dynamic:
            return
        self._dynamic = True
        for node in self.nodes:
            if node.status == "up" and node.down_event is None:
                node.down_event = self.sim.event()

    def install_churn(self, schedule: ChurnSchedule) -> None:
        """Drive ``schedule`` inside the simulation (builder hook).

        An empty schedule is a no-op — the fleet stays byte-identical
        to the static build.
        """
        if schedule.empty:
            return
        self.enable_dynamics()
        start(self.sim, self._churn_driver(schedule), name="fleet-churn")

    def _churn_driver(self, schedule: ChurnSchedule
                      ) -> Generator[Any, Any, None]:
        for event in schedule.events:
            delay = event.at_s - self.sim.now
            if delay > 0:
                yield delay
            if event.action == "crash":
                self.crash(event.node)
            elif event.action == "rejoin":
                self.rejoin(event.node)
            elif event.action == "leave":
                yield from self.leave(event.node)
            else:
                yield from self.join()

    def _node(self, node_id: Optional[int]) -> FleetNode:
        if node_id is None or not 0 <= node_id < len(self.nodes):
            raise SimulationError(f"no fleet node {node_id!r}")
        return self.nodes[node_id]

    def _require_dynamic(self, op: str) -> None:
        if not self._dynamic:
            raise SimulationError(
                f"{op} needs fleet dynamics: call enable_dynamics() "
                f"before starting load, or install a ChurnSchedule")

    def _trace_churn(self, action: str, node_id: int) -> None:
        if self.sim.trace.enabled:
            self.sim.trace.emit("fleet.churn", cat="fleet",
                                action=action, node=node_id)

    def crash(self, node_id: int) -> None:
        """Fail-stop ``node_id``: its UDP ports go dark at the switch.

        Instantaneous — no drain, no handoff.  The node's cached data
        is lost to the fleet (dirty chunks die with it); its in-flight
        backend I/O completes internally but nothing escapes to clients
        or peers.  Occupancy at the instant of the crash is snapshotted
        as the rejoin warmup target.
        """
        self._require_dynamic("crash")
        node = self._node(node_id)
        if node.status != "up":
            raise SimulationError(
                f"crash: node {node_id} is {node.status}")
        node.status = "down"
        module = node.testbed.ncache
        if module is not None:
            node.warm_target_bytes = int(
                WARM_FRACTION * module.store.used_bytes)
        self._go_dark(node)
        self._trace_churn("crash", node_id)

    def rejoin(self, node_id: int) -> None:
        """Bring a crashed node back with a cold NCache.

        The store is resized through zero — evictions pass the policy's
        ghost lists, so the first post-restart misses on previously-hot
        keys show up on the ``cache.ncache.ghost_hit`` estimator — and
        the FS buffer cache is cleared.  The node then serves traffic
        again, counting ``fleet.warmup_ops`` until occupancy recovers.
        """
        self._require_dynamic("rejoin")
        node = self._node(node_id)
        if node.status != "down":
            raise SimulationError(
                f"rejoin: node {node_id} is {node.status}, not down")
        module = node.testbed.ncache
        if module is not None:
            module.store.cold_restart()
        node.testbed.cache.clear()
        for ip in node.testbed.server_ips:
            self.network.set_port_down(ip, down=False)
        node.status = "up"
        node.warming = True
        node.down_event = self.sim.event()
        self._trace_churn("rejoin", node_id)

    def leave(self, node_id: int) -> Generator[Any, Any, None]:
        """Gracefully drain ``node_id`` and detach it (a process).

        The node comes off the ring *first* so no new requests land on
        it, then hands its pinned chunks over: dirty chunks are written
        back to the backend, clean LBN chunks are pushed to their block
        group's new owner over the simulated network.  Only then do its
        ports close.
        """
        self._require_dynamic("leave")
        node = self._node(node_id)
        if node.status != "up":
            raise SimulationError(
                f"leave: node {node_id} is {node.status}")
        if sum(1 for n in self.nodes if n.status == "up") <= 1:
            raise SimulationError("cannot drain the last live node")
        before = self._owner_map()
        self.ring.remove_node(node_id)
        self._note_rebalance(before)
        self._trace_churn("leave", node_id)
        module = node.testbed.ncache
        if module is not None:
            yield from self._drain(node, module)
        node.status = "left"
        self._go_dark(node)

    def _go_dark(self, node: FleetNode) -> None:
        """Close ``node``'s ports at the switch and fire its
        ``down_event`` so streams racing a request against it reroute."""
        for ip in node.testbed.server_ips:
            self.network.set_port_down(ip)
        down, node.down_event = node.down_event, None
        if down is not None:
            down.succeed(None)

    def _drain(self, node: FleetNode, module: Any
               ) -> Generator[Any, Any, None]:
        store = module.store
        for chunk in list(store.chunks()):
            if chunk.dirty and store.peek_fho(chunk.key) is chunk:
                yield from module.write_back_chunk(chunk)
            if node.client is None:
                continue  # no peer wiring -> nothing to hand over
            key = chunk.key
            if not isinstance(key, LbnKey):
                continue
            if store.peek_lbn(key) is not chunk:
                continue  # evicted while earlier pushes were in flight
            target = self.route_block(key.lbn)
            peer = Endpoint(f"s{target}.server-0", PEER_PORT)
            ok = yield from node.client.push(
                peer, key.lbn, 1, KeyedPayload(chunk.length, lbn_key=key))
            if ok:
                self._drained.add()

    def join(self, spec: Optional[TestbedSpec] = None
             ) -> Generator[Any, Any, FleetNode]:
        """Grow the fleet by one node mid-run (a process).

        The new node is built on the shared simulator and switch under
        the next free ``s<i>.`` prefix, replays every file the fleet has
        created (the images are identical by construction), logs into
        iSCSI, gets the cooperative wiring, and finally enters the ring
        — taking over ~1/n of the keyspace.
        """
        self._require_dynamic("join")
        tb_spec = spec if spec is not None else self.spec.testbed
        base = self.spec.testbed
        if (tb_spec.kind != base.kind or tb_spec.seed != base.seed
                or tb_spec.image_capacity_blocks
                != base.image_capacity_blocks):
            raise SimulationError(
                "joining spec must match the fleet's kind and image "
                "geometry (identical images are what make the "
                "consistent-hash placement coherent)")
        if self.spec.cooperative and tb_spec.mode is not ServerMode.NCACHE:
            raise SimulationError(
                "a cooperative fleet needs NCACHE-mode joiners")
        index = len(self.nodes)
        testbed = tb_spec.build(sim=self.sim, network=self.network,
                                name_prefix=f"s{index}.")
        for name, size in self._files:
            testbed.image.create_file(name, size)
        node = FleetNode(index, testbed)
        node.down_event = self.sim.event()
        yield from testbed.initiator.connect()
        if self.spec.cooperative:
            self._wire_peer(node)
        self.nodes.append(node)
        self._routed.append(self.metrics.counter(f"fleet.routed.n{index}"))
        before = self._owner_map()
        self.ring.add_node(index)
        self._note_rebalance(before)
        self._trace_churn("join", index)
        return node

    def _wire_peer(self, node: FleetNode) -> None:
        """Give ``node`` the cooperative wiring: the peer service, the
        peer client, and the read seam chaining local NCache, then the
        group's other owners, then (back in the initiator) the wire to
        iSCSI."""
        testbed = node.testbed
        index = node.index
        node.service = PeerCacheService(testbed)
        node.client = PeerCacheClient(
            testbed,
            peers_for=lambda lbn: self.peer_endpoints(lbn, exclude=index))
        testbed.initiator.read_interceptor = cooperative_interceptor(
            testbed.ncache, node.client)

    # -- rebalance accounting ------------------------------------------------

    def _tracked_groups(self) -> List[int]:
        if self._groups_cache is None:
            groups = set()
            image = self.nodes[0].testbed.image
            for name, _size in self._files:
                inode = image.lookup(name)
                for b in range(inode.nblocks):
                    groups.add(self.group_of(inode.block_lbn(b)))
            self._groups_cache = sorted(groups)
        return self._groups_cache

    def _owner_map(self) -> Dict[int, int]:
        return {group: self.ring.owner(group)
                for group in self._tracked_groups()}

    def _note_rebalance(self, before: Dict[int, int]) -> None:
        after = self._owner_map()
        moved = sum(1 for group, owner in before.items()
                    if after.get(group) != owner)
        if moved:
            self._rebalanced.add(moved)

    # -- load balancing ------------------------------------------------------

    def group_of(self, lbn: int) -> int:
        return lbn // self.spec.group_blocks

    def owners_of(self, lbn: int) -> List[int]:
        # Replication is capped by the current ring membership: a leave
        # can shrink the ring below the configured factor.
        count = self.spec.replication
        if count > len(self.ring.nodes):
            count = len(self.ring.nodes)
        return self.ring.owners(self.group_of(lbn), count)

    def route_block(self, lbn: int, salt: int = 0) -> int:
        """Node index serving requests for ``lbn``.

        ``salt`` (e.g. a logical client id) spreads a replicated group's
        load across its owners deterministically.  Under dynamics, a
        down owner is skipped: the pick re-salts over the group's live
        owners (cooperative caching then absorbs the miss storm), or
        over the live nodes further clockwise when the whole owner set
        is dark.
        """
        owners = self.owners_of(lbn)
        pick = owners[salt % len(owners)]
        if self._dynamic and self.nodes[pick].status != "up":
            live = [o for o in owners if self.nodes[o].status == "up"]
            if not live:
                walked = self.ring.owners(self.group_of(lbn),
                                          len(self.ring.nodes))
                live = [o for o in walked
                        if self.nodes[o].status == "up"]
                if not live:
                    raise SimulationError(
                        f"no live node for lbn {lbn} "
                        f"(group {self.group_of(lbn)})")
            self._failover.add()
            pick = live[salt % len(live)]
        return pick

    def route(self, path: str, offset: int = 0, salt: int = 0) -> FleetNode:
        """The node a request for ``path``/``offset`` is balanced to."""
        inode = self.nodes[0].testbed.image.lookup(path)
        lbn = inode.block_lbn(min(offset // self.block_size,
                                  inode.nblocks - 1))
        node = self.nodes[self.route_block(lbn, salt)]
        self._routed[node.index].add()
        if self._dynamic and node.warming:
            self._warmup_ops.add()
            module = node.testbed.ncache
            if module is None \
                    or module.store.used_bytes >= node.warm_target_bytes:
                node.warming = False
        return node

    def note_inflight_retry(self) -> None:
        """A stream's in-flight request raced a node crash and is being
        rerouted (called by fleet-aware workloads)."""
        self._retries.add()

    def peer_endpoints(self, lbn: int, exclude: int) -> List[Endpoint]:
        """The group's other *live* owners, as peer-service endpoints.

        Down owners are skipped so a probe never chases a crashed node;
        a probe already in flight when its peer dies runs into the
        client's RTO and counts a ``fleet.peer_timeout``.
        """
        return [Endpoint(f"s{j}.server-0", PEER_PORT)
                for j in self.owners_of(lbn)
                if j != exclude and self.nodes[j].status == "up"]

    # -- measurement protocol ------------------------------------------------

    def reset_measurements(self) -> None:
        for node in self.nodes:
            node.testbed.reset_measurements()
        self.metrics.reset()

    def backend_reads(self) -> int:
        """Total iSCSI commands served by the nodes' storage backends.

        ``commands_served`` is a lifetime total — diff two calls around
        the measurement window.
        """
        return sum(node.testbed.target.commands_served
                   for node in self.nodes)

    def routed_counts(self) -> List[float]:
        return [c.value for c in self._routed]

    def imbalance(self) -> float:
        """max/mean of per-node routed requests (1.0 = perfectly even)."""
        counts = self.routed_counts()
        mean = sum(counts) / len(counts)
        value = (max(counts) / mean) if mean else 0.0
        self._imbalance.set(value)
        return value

    def counter_sum(self, name: str) -> float:
        """Sum one server-host counter across the fleet."""
        return sum(node.testbed.server_host.counters[name].value
                   for node in self.nodes)

    def churn_stats(self) -> Dict[str, float]:
        """The membership-dynamics counters, as plain numbers."""
        return {
            "failover_reroute": self._failover.value,
            "warmup_ops": self._warmup_ops.value,
            "rebalance_moved_keys": self._rebalanced.value,
            "drain_pushed": self._drained.value,
            "inflight_retry": self._retries.value,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        self.imbalance()
        return {
            "n_servers": len(self.nodes),
            "replication": self.spec.replication,
            "cooperative": self.spec.cooperative,
            "sim_time_s": self.sim.now,
            "fleet": self.metrics.snapshot(),
            "nodes": {node.name: node.testbed.metrics_snapshot()
                      for node in self.nodes},
        }


def build_fleet(spec: ClusterSpec) -> Fleet:
    """Build the testbeds, the ring, and the cooperative wiring."""
    n = spec.n_servers
    ring = HashRing(range(n), vnodes=spec.vnodes, seed=spec.hash_seed)
    if n == 1:
        # Fast path: exactly the standalone testbed, event-for-event.
        testbed = spec.testbed.build()
        return Fleet(spec, testbed.sim, testbed.network,
                     [FleetNode(0, testbed)], ring)
    sim = Simulator()
    sim.trace.process_name = (
        f"Fleet[{n}x{spec.testbed.kind}/{spec.testbed.mode.label}]")
    network = Network(sim)
    nodes = [FleetNode(i, spec.testbed.build(
                 sim=sim, network=network, name_prefix=f"s{i}."))
             for i in range(n)]
    fleet = Fleet(spec, sim, network, nodes, ring)
    if spec.cooperative:
        for node in nodes:
            fleet._wire_peer(node)
    if spec.churn is not None:
        fleet.install_churn(spec.churn)
    return fleet
