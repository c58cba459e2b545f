"""Fleet-scale NCache: N testbeds behind a consistent-hash router.

The paper's NCache serves one pass-through server; this package scales
it out.  A :class:`~repro.servers.spec.ClusterSpec` describes the fleet,
:func:`build_fleet` composes it (shared simulator and switch, one
testbed per node, peer cache wiring), and :class:`Fleet` is the wired
result the workloads and experiments drive.
"""

from ..servers.spec import ChurnEvent, ChurnSchedule, ClusterSpec
from .builder import Fleet, FleetNode, build_fleet
from .hashring import HashRing
from .peer import PeerCacheClient, PeerCacheService

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "ClusterSpec",
    "Fleet",
    "FleetNode",
    "HashRing",
    "PeerCacheClient",
    "PeerCacheService",
    "build_fleet",
]
