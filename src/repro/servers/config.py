"""Server configurations: original, baseline (ideal zero-copy), NCache.

§5.1 defines the three-way comparison used throughout the evaluation.  The
mapping to copy disciplines:

* ``ORIGINAL`` — every regular-data movement is a physical copy;
* ``BASELINE`` — the copy statements are deleted outright; replies carry
  junk ("use of random packets does not affect the performance
  measurement"); no cache-management overhead of any kind;
* ``NCACHE``   — logical copies + the NCache module's own overheads.

Memory budgeting follows §3.4/§4.1: the machine has ``ram_bytes``; the
kernel and daemons take a fixed carve-out; the remainder is cache memory.
Original/baseline give it all to the file-system buffer cache; NCache pins
most of it as network buffers (the network-centric cache) and leaves the
file-system cache deliberately small.  The split is made once, here
(:attr:`TestbedConfig.fs_cache_bytes`,
:attr:`TestbedConfig.ncache_capacity_bytes`), and never moves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..copymodel.accounting import CopyDiscipline
from ..copymodel.costs import DEFAULT_COSTS, CostModel

MB = 1024 * 1024
GB = 1024 * MB


class ServerMode(enum.Enum):
    """The three §5.1 server configurations."""

    ORIGINAL = "original"
    BASELINE = "baseline"
    NCACHE = "ncache"

    @property
    def discipline(self) -> CopyDiscipline:
        return {
            ServerMode.ORIGINAL: CopyDiscipline.PHYSICAL,
            ServerMode.BASELINE: CopyDiscipline.ZERO,
            ServerMode.NCACHE: CopyDiscipline.LOGICAL,
        }[self]

    @property
    def label(self) -> str:
        """Display label, derived from the enum value (no parallel table);
        NCache keeps its branded capitalisation."""
        return "NCache" if self is ServerMode.NCACHE else self.value


@dataclass(frozen=True)
class TestbedConfig:
    """Shared knobs of the paper's testbed (§5.2).

    The field defaults are the machine; what a testbed *kind* changes is
    :data:`repro.servers.spec.KIND_DEFAULTS`.  Frozen and hashable, so a
    :class:`~repro.servers.spec.TestbedSpec` holds one as a value.
    """

    __test__ = False  # not a pytest test class, despite the name

    mode: ServerMode = ServerMode.ORIGINAL
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    # Application server: P3 1 GHz, 896 MB RAM.
    server_ram_bytes: int = 896 * MB
    server_kernel_carveout: int = 96 * MB
    #: FS buffer cache size under NCACHE (kept small to limit double
    #: buffering, §3.4); ignored in the other modes.
    ncache_fs_cache_bytes: int = 64 * MB
    n_server_nics: int = 1
    checksum_offload: bool = True

    # Storage server: P3 1 GHz, 512 MB RAM, 4-disk IDE RAID-0 (the
    # disks are :class:`~repro.fs.disk.DiskModel`'s defaults).

    # Clients: two nodes, as in the paper.
    n_client_hosts: int = 2

    # NFS server daemons (tuned per experiment in the paper).
    n_daemons: int = 8

    #: replacement policy for both caches — a :data:`repro.cache.POLICIES`
    #: name; ``lru`` (the paper's, §3.4) is the only one.
    cache_policy: str = "lru"

    #: ablation A1: inherit checksums on substituted packets.
    ncache_inherit_checksums: bool = True
    #: ablation A3: FHO→LBN remapping on buffer-cache flush.
    ncache_enable_remap: bool = True
    #: ablation A8 (paper §6 future work): the storage server keeps blocks
    #: on disk in a network-ready format — its read path goes copy-free.
    storage_network_ready_disk: bool = False

    @property
    def cache_memory_bytes(self) -> int:
        """Memory available for caching on the application server."""
        return self.server_ram_bytes - self.server_kernel_carveout

    @property
    def fs_cache_bytes(self) -> int:
        if self.mode is ServerMode.NCACHE:
            return self.ncache_fs_cache_bytes
        return self.cache_memory_bytes

    @property
    def ncache_capacity_bytes(self) -> int:
        if self.mode is not ServerMode.NCACHE:
            return 0
        return self.cache_memory_bytes - self.ncache_fs_cache_bytes
