"""Testbed assembly: the paper's four-machine setup (§5.2).

One storage server (iSCSI target, RAID-0), one application server (NFS or
kHTTPd) with one or two gigabit NICs, and two client machines, all behind
a non-blocking switch.  :class:`NfsTestbed` and :class:`WebTestbed` build
the whole thing for a given :class:`~repro.servers.config.ServerMode` so
experiments differ *only* in the server's copy discipline and the presence
of the NCache module, as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..cache.arbiter import MemoryArbiter, make_arbiter
from ..core.ncache import NCacheModule
from ..core.wiring import attach_ncache
from ..fs.buffer_cache import BufferCache
from ..fs.disk import DiskModel, Raid0
from ..fs.image import DiskStore, FsImage
from ..fs.localdev import LocalBlockDevice
from ..fs.vfs import VFS
from ..http.client import HttpClient
from ..http.khttpd import KHttpd
from ..iscsi.initiator import IscsiInitiator
from ..iscsi.target import IscsiTarget
from ..net.addresses import Endpoint, HTTP_PORT, ISCSI_PORT, NFS_PORT
from ..net.host import Host
from ..net.network import Network
from ..nfs.client import NfsClient
from ..nfs.protocol import FileHandle
from ..nfs.server import FlushDaemon, NfsServer
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Simulator, StopSimulation
from ..sim.process import Process, start
from ..sim.stats import MeterSet
from .config import ServerMode

if TYPE_CHECKING:
    from .spec import TestbedSpec

#: The storage server's array: a 4-disk IDE RAID-0 (§5.2).
N_DISKS = 4


def _stop_run(_event) -> None:
    raise StopSimulation


def run_until_complete(sim: Simulator, process: Process) -> None:
    """Drive the simulator until ``process`` finishes (setup phases).

    Runs the engine's fast ``run()`` loop and stops it from a completion
    callback — prewarm phases push hundreds of thousands of events, and
    one ``step()`` call per event (full next-event seek each time) was a
    measurable slice of every experiment's setup.
    """
    if not process.triggered:
        process.add_callback(_stop_run)
        sim.run()
        if not process.triggered:
            raise RuntimeError("simulation drained before process finished")
    if process.failed:
        raise process.value


class BaseTestbed:
    """Storage server + application server + clients + switch.

    Constructed only by :meth:`TestbedSpec.build
    <repro.servers.spec.TestbedSpec.build>`, from the spec alone: every
    default lives there.  A standalone testbed (``sim``/``network`` of
    ``None``) owns its :class:`Simulator` and switch.  A fleet
    (:mod:`repro.fleet`) instead passes a shared ``sim``/``network`` plus
    a ``name_prefix`` that keeps host names and NIC IPs globally unique
    on the shared switch; the construction is otherwise event-for-event
    identical to the standalone path.
    """

    def __init__(self, spec: TestbedSpec, sim: Optional[Simulator],
                 network: Optional[Network], name_prefix: str) -> None:
        config = self.config = spec.config
        self.name_prefix = name_prefix
        owns_sim = sim is None
        self.sim = Simulator() if sim is None else sim
        if owns_sim:
            self.sim.trace.process_name = (
                f"{type(self).__name__}[{config.mode.label}]")
        self.network = Network(self.sim) if network is None else network
        #: testbed-wide declared metrics (request latency/bytes live here).
        self.metrics = MetricsRegistry()
        costs = config.costs

        # Storage server.
        self.storage_host = Host(self.sim, f"{name_prefix}storage", costs,
                                 checksum_offload=config.checksum_offload)
        self.storage_host.add_nic(self.network, f"{name_prefix}storage-0")
        self.image = FsImage(capacity_blocks=spec.image_capacity_blocks,
                             seed=spec.seed,
                             inode_table_blocks=config.inode_table_blocks)
        self.disk_store = DiskStore(self.image)
        disks = [DiskModel(self.sim, name=f"{name_prefix}ide{i}",
                           seek_ms=config.disk_seek_ms,
                           rotation_ms=config.disk_rotation_ms)
                 for i in range(N_DISKS)]
        self.raid = Raid0(disks)
        self.local_dev = LocalBlockDevice(self.disk_store, self.raid)
        self.target = IscsiTarget(
            self.storage_host, self.local_dev,
            network_ready_disk=config.storage_network_ready_disk)

        # Application server.
        self.server_host = Host(self.sim, f"{name_prefix}server", costs,
                                checksum_offload=config.checksum_offload)
        self.server_ips: List[str] = []
        for i in range(config.n_server_nics):
            ip = f"{name_prefix}server-{i}"
            self.server_host.add_nic(self.network, ip)
            self.server_ips.append(ip)

        discipline = config.mode.discipline
        self.initiator = IscsiInitiator(
            self.server_host, self.server_ips[0],
            Endpoint(f"{name_prefix}storage-0", ISCSI_PORT),
            discipline=discipline)
        self.cache = BufferCache(config.fs_cache_bytes,
                                 counters=self.server_host.counters,
                                 trace=self.sim.trace,
                                 policy=config.cache_policy)
        self.vfs = VFS(self.server_host, self.image, self.cache,
                       self.initiator, discipline,
                       readahead_blocks=config.readahead_blocks)
        self.ncache: Optional[NCacheModule] = None
        if config.mode is ServerMode.NCACHE:
            self.ncache = attach_ncache(
                self.server_host, self.vfs, self.initiator,
                capacity_bytes=config.ncache_capacity_bytes,
                strict=config.ncache_strict,
                inherit_checksums=config.ncache_inherit_checksums,
                enable_remap=config.ncache_enable_remap,
                policy=config.cache_policy)
        self.arbiter = self._attach_arbiter()

        # Clients.
        self.client_hosts: List[Host] = []
        for i in range(config.n_client_hosts):
            host = Host(self.sim, f"{name_prefix}client{i}", costs,
                        checksum_offload=config.checksum_offload)
            host.add_nic(self.network, f"{name_prefix}client-{i}")
            self.client_hosts.append(host)

        # Meters.
        self.meters = MeterSet(self.sim, registry=self.metrics)
        self.meters.watch("server_cpu", self.server_host.cpu)
        self.meters.watch("storage_cpu", self.storage_host.cpu)
        for i, nic in enumerate(self.server_host.nics):
            self.meters.watch(f"server_nic{i}_tx", nic.tx_link)

    def _attach_arbiter(self) -> MemoryArbiter:
        """Put every cache byte under one arbiter (DESIGN.md §12).

        Registration order is fixed — bcache first, then ncache — so
        the controller's tie-breaking is deterministic.  Under the
        default ``StaticSplit`` this degenerates to the paper's static
        squeeze: budgets are validated once and no simulator event is
        ever scheduled.  An adaptive arbiter under NCache additionally
        installs the bcache ghost filter: metadata and dirty pages
        ghost-record, clean placeholder pages do not — a placeholder's
        payload is already resident in the chunk store, so re-missing
        it costs no backend read, while metadata never enters the chunk
        store and a dirty page's payload only reaches it once its
        writeback remaps (module doc of :mod:`repro.cache.arbiter`).  The bcache floor is
        kept above the transient pin window (one block set per NFS
        daemon) so a shrunken cache cannot stall mid-read.
        """
        config = self.config
        spec = config.arbiter
        arbiter = make_arbiter(spec, config.cache_memory_bytes,
                               counters=self.server_host.counters,
                               trace=self.sim.trace)
        if self.ncache is not None and spec.adaptive:
            self.cache.set_ghost_admit(
                lambda entry: entry.is_metadata or entry.dirty)
        pin_window = 16 * self.image.block_size * max(1, config.n_daemons)
        floor = max(int(config.fs_cache_bytes * spec.floor_fraction),
                    min(pin_window, config.fs_cache_bytes))
        arbiter.register("bcache", config.fs_cache_bytes,
                         self.cache.resize, self.cache.kernel_metrics,
                         writeback=self.vfs.write_back_entry,
                         floor_bytes=floor)
        if self.ncache is not None:
            store = self.ncache.store
            arbiter.register("ncache", config.ncache_capacity_bytes,
                             store.resize, store.kernel_metrics,
                             writeback=self.ncache.write_back_chunk)
        arbiter.start(self.sim)
        return arbiter

    def server_ip_for_client(self, client_index: int) -> str:
        """Spread clients across the server's NICs (the 2-NIC setup)."""
        return self.server_ips[client_index % len(self.server_ips)]

    def setup(self) -> None:
        """Establish sessions (iSCSI login etc.); runs the simulator."""
        run_until_complete(self.sim, start(self.sim, self._setup(),
                                           name="testbed-setup"))

    def _setup(self):
        yield from self.initiator.connect()

    # -- measurement protocol ------------------------------------------------

    def all_hosts(self) -> List[Host]:
        return [self.server_host, self.storage_host] + self.client_hosts

    def reset_measurements(self) -> None:
        """Zero all meters and counters (end-of-warmup boundary)."""
        self.meters.reset()
        for host in self.all_hosts():
            host.counters.registry.reset()

    def warmup_then_measure(self, warmup_s: float, measure_s: float) -> None:
        """Run the standard two-phase measurement window."""
        self.sim.run(until=self.sim.now + warmup_s)
        self.reset_measurements()
        self.sim.run(until=self.sim.now + measure_s)

    def server_cpu_utilization(self) -> float:
        return self.meters.utilization("server_cpu")

    def storage_cpu_utilization(self) -> float:
        return self.meters.utilization("storage_cpu")

    def metrics_snapshot(self) -> dict:
        """Machine-readable state of every metric in the testbed.

        Combines the testbed-level registry (request latency/bytes,
        throughput) with each host's private registry (copy accounting,
        cache hit/miss, per-protocol service-time histograms) so an
        experiment can dump one JSON-serialisable report per data point.
        """
        return {
            "mode": self.config.mode.value,
            "sim_time_s": self.sim.now,
            "throughput": {
                "ops_per_s": self.meters.throughput.ops_per_second(),
                "bytes_per_s": self.meters.throughput.bytes_per_second(),
            },
            "latency": self.meters.request_latency.summary(),
            "utilization": self.meters.utilizations(),
            "metrics": self.metrics.snapshot(),
            "hosts": {host.name: host.counters.registry.snapshot()
                      for host in self.all_hosts()},
        }


class NfsTestbed(BaseTestbed):
    """NFS server backed by iSCSI storage (§5.4 experiments)."""

    def __init__(self, spec: TestbedSpec, sim: Optional[Simulator],
                 network: Optional[Network], name_prefix: str) -> None:
        super().__init__(spec, sim, network, name_prefix)
        config = self.config
        self.nfs_server = NfsServer(self.server_host, self.vfs,
                                    n_daemons=config.n_daemons,
                                    discipline=config.mode.discipline)
        self.flush_daemon: Optional[FlushDaemon] = None
        if spec.flush_interval_s is not None:
            self.flush_daemon = FlushDaemon(
                self.vfs, interval_s=spec.flush_interval_s)
        self.clients: List[NfsClient] = []
        for i, host in enumerate(self.client_hosts):
            server_ep = Endpoint(self.server_ip_for_client(i), NFS_PORT)
            self.clients.append(NfsClient(host, host.ip, server_ep,
                                          local_port=900 + i))

    def file_handle(self, name: str) -> FileHandle:
        """Mount-time file handle (the one LOOKUP would return)."""
        inode = self.image.lookup(name)
        return FileHandle(inode.ino, inode.generation)


class WebTestbed(BaseTestbed):
    """kHTTPd backed by iSCSI storage (§5.5 experiments)."""

    def __init__(self, spec: TestbedSpec, sim: Optional[Simulator],
                 network: Optional[Network], name_prefix: str) -> None:
        super().__init__(spec, sim, network, name_prefix)
        self.khttpd = KHttpd(self.server_host, self.vfs,
                             discipline=self.config.mode.discipline)
        self.http_clients: List[HttpClient] = []
        for i, host in enumerate(self.client_hosts):
            for c in range(spec.connections_per_client):
                server_ep = Endpoint(self.server_ip_for_client(i), HTTP_PORT)
                self.http_clients.append(
                    HttpClient(host, host.ip, server_ep,
                               local_port=40000 + 100 * i + c))

    def _setup(self):
        yield from self.initiator.connect()
        for client in self.http_clients:
            yield from client.connect()
