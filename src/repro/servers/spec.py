"""Declarative testbed and cluster specifications.

:class:`TestbedSpec` is the one description of a testbed: which kind of
server, the frozen :class:`~repro.servers.config.TestbedConfig` of the
machine, and the few values only construction needs (image geometry,
seed, flush interval, connection fan-out).  It is an immutable, hashable,
**picklable** value — so a :class:`~repro.experiments.common.Cell`
can carry one across process-pool workers unchanged — and
:meth:`TestbedSpec.build` is the only place a testbed is constructed.

There is one table of defaults, in three parts: ``TestbedConfig``'s
fields are the machine, :data:`KIND_DEFAULTS` is what a kind changes
(applied by :meth:`TestbedSpec.nfs` / :meth:`TestbedSpec.web`), and
``TestbedSpec``'s own fields are the build values.

:class:`ClusterSpec` scales a testbed spec out to an N-server fleet
(consistent-hash routing, optional cooperative caching); its
:meth:`ClusterSpec.build` delegates to :mod:`repro.fleet`.  A single-node
cluster builds exactly the testbed its :class:`TestbedSpec` describes —
same construction order, same simulation events — so the fleet layer adds
nothing until there is actually a fleet.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from .config import ServerMode, TestbedConfig
from .testbed import NfsTestbed, WebTestbed

#: What a testbed kind changes in :class:`TestbedConfig`'s defaults: the
#: NFS experiments run a 16-daemon pool, kHTTPd two NICs.
KIND_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "nfs": {"n_daemons": 16},
    "web": {"n_server_nics": 2},
}


@dataclass(frozen=True)
class TestbedSpec:
    """A complete, validated description of one testbed.

    ``config`` is taken whole: a spec constructed directly describes
    exactly the machine it is handed, and :data:`KIND_DEFAULTS` apply
    only through :meth:`nfs` / :meth:`web`.  ``flush_interval_s`` applies
    to the NFS kind only (``None`` disables the flush daemon);
    ``connections_per_client`` applies to the web kind only.
    """

    __test__ = False  # not a test class, despite the Test* name

    kind: str
    config: TestbedConfig
    image_capacity_blocks: int = 4 << 20
    seed: int = 1
    flush_interval_s: Optional[float] = 0.25
    connections_per_client: int = 6

    def __post_init__(self) -> None:
        if self.kind not in KIND_DEFAULTS:
            raise ValueError(
                f"unknown testbed kind {self.kind!r} (want 'nfs' or 'web')")
        if not isinstance(self.config, TestbedConfig):
            raise ValueError(
                f"config must be a TestbedConfig, got {self.config!r}")
        if self.image_capacity_blocks <= 0:
            raise ValueError("image_capacity_blocks must be positive")
        if self.flush_interval_s is not None and self.flush_interval_s <= 0:
            raise ValueError("flush_interval_s must be positive or None")
        if self.connections_per_client < 1:
            raise ValueError("connections_per_client must be >= 1")

    # -- ergonomic constructors ---------------------------------------------

    @classmethod
    def nfs(cls, mode: Union[ServerMode, str] = ServerMode.ORIGINAL,
            **kwargs: Any) -> "TestbedSpec":
        """An NFS spec; kwargs that are not spec fields set the config."""
        return cls._of_kind("nfs", mode, kwargs)

    @classmethod
    def web(cls, mode: Union[ServerMode, str] = ServerMode.ORIGINAL,
            **kwargs: Any) -> "TestbedSpec":
        """A web (kHTTPd) spec; kwargs that are not spec fields set the
        config."""
        return cls._of_kind("web", mode, kwargs)

    @classmethod
    def _of_kind(cls, kind: str, mode: Union[ServerMode, str],
                 kwargs: Dict[str, Any]) -> "TestbedSpec":
        own = {f.name: kwargs.pop(f.name) for f in dataclasses.fields(cls)
               if f.name in kwargs}
        config = TestbedConfig(mode=ServerMode(mode),
                               **{**KIND_DEFAULTS[kind], **kwargs})
        return cls(kind=kind, config=config, **own)

    @property
    def mode(self) -> ServerMode:
        return self.config.mode

    def build(self, *, sim: Any = None, network: Any = None,
              name_prefix: str = "") -> Any:
        """Construct the fully-wired testbed: an :class:`NfsTestbed` or a
        :class:`WebTestbed`, by ``kind``.

        ``sim``/``network``/``name_prefix`` let a fleet compose several
        testbeds into one simulation; the defaults build a standalone
        testbed.
        """
        testbed = NfsTestbed if self.kind == "nfs" else WebTestbed
        return testbed(self, sim, network, name_prefix)


#: Legal :class:`ChurnEvent` actions.
CHURN_ACTIONS: Tuple[str, ...] = ("join", "leave", "crash", "rejoin")


@dataclass(frozen=True)
class ChurnEvent:
    """One timed membership change in a :class:`ChurnSchedule`.

    * ``join`` — a fresh node (the next free index) is built mid-run,
      replays the fleet's files, connects, and enters the ring.
    * ``leave`` — graceful drain: ``node`` writes back its dirty chunks,
      hands its pinned clean chunks to each block group's new owner over
      the simulated network, then detaches.
    * ``crash`` — fail-stop at the switch: ``node``'s UDP ports go dark
      instantly; its cache contents are lost to the fleet.
    * ``rejoin`` — the crashed ``node`` comes back with a *cold* NCache
      (occupancy restarts from zero, so the warmup is visible in the
      occupancy gauge).
    """

    at_s: float
    action: str
    node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.action not in CHURN_ACTIONS:
            raise ValueError(
                f"unknown churn action {self.action!r}; "
                f"legal actions: {list(CHURN_ACTIONS)}")
        if self.action != "join" and self.node is None:
            raise ValueError(f"{self.action!r} needs an explicit node")
        if self.node is not None and self.node < 0:
            raise ValueError(f"node must be >= 0, got {self.node}")


@dataclass(frozen=True)
class ChurnSchedule:
    """A declarative, picklable timeline of membership events.

    Events are kept sorted by ``at_s`` (stable for ties, so same-time
    events apply in the order written).  An empty schedule is inert: a
    cluster built with one is event-for-event identical to a cluster
    built with ``churn=None``.
    """

    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        for event in events:
            if not isinstance(event, ChurnEvent):
                raise ValueError(
                    f"events must be ChurnEvent instances, got {event!r}")
        object.__setattr__(
            self, "events", tuple(sorted(events, key=lambda e: e.at_s)))

    @property
    def empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class ClusterSpec:
    """N identically-configured testbeds behind a consistent-hash router.

    * ``replication`` — how many ring owners each block group has; the
      router spreads requests for a group across its owners, so the
      group's blocks end up cached on ``replication`` nodes.
    * ``cooperative`` — on a local NCache miss, probe the group's other
      owners over the simulated network before reading from iSCSI.
      Requires :attr:`TestbedSpec.mode` ``NCACHE`` (the probe is answered
      from the peer's network-centric cache).
    * ``group_blocks`` — consistent-hash granularity: contiguous runs of
      this many LBNs route as one unit.
    * ``vnodes``/``hash_seed`` — ring geometry (virtual nodes per server)
      and its deterministic hash salt.
    * ``churn`` — optional :class:`ChurnSchedule` of timed membership
      events, driven inside the simulation by the fleet builder.  An
      empty (or absent) schedule leaves the fleet byte-identical to the
      static build.
    """

    testbed: TestbedSpec = TestbedSpec.nfs()
    n_servers: int = 1
    replication: int = 1
    cooperative: bool = False
    group_blocks: int = 64
    vnodes: int = 64
    hash_seed: int = 0
    churn: Optional[ChurnSchedule] = None

    def __post_init__(self) -> None:
        if not isinstance(self.testbed, TestbedSpec):
            raise ValueError("testbed must be a TestbedSpec")
        if self.n_servers < 1:
            raise ValueError("n_servers must be >= 1")
        if not 1 <= self.replication <= self.n_servers:
            raise ValueError(
                f"replication must be in [1, n_servers], got "
                f"{self.replication} with {self.n_servers} server(s)")
        if self.cooperative and self.testbed.mode is not ServerMode.NCACHE:
            raise ValueError(
                "cooperative caching probes the peers' NCache stores; "
                "it requires mode=ServerMode.NCACHE")
        if self.group_blocks < 1:
            raise ValueError("group_blocks must be >= 1")
        if self.vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        if self.churn is not None:
            if not isinstance(self.churn, ChurnSchedule):
                raise ValueError("churn must be a ChurnSchedule")
            if not self.churn.empty:
                if self.n_servers < 2:
                    raise ValueError(
                        "churn needs n_servers >= 2 (a single-node "
                        "cluster is the bare standalone testbed)")
                if self.testbed.kind != "nfs":
                    raise ValueError(
                        "churn's fail-stop model cuts UDP traffic at "
                        "the switch; it requires the nfs testbed kind")

    def build(self) -> Any:
        """Compose the wired fleet (a :class:`repro.fleet.Fleet`)."""
        from ..fleet.builder import build_fleet
        return build_fleet(self)
