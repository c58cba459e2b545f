"""The boundary table: which functions the traced run wraps, per layer.

One row per wrapped entry point: ``(layer, "module:Qualified.name",
workloads)``.  Layers are the simulator's packages.  An entry belongs
here when another layer — or the engine, for process bodies and
callbacks — calls it, so that time crossing a package boundary is booked
to the package that spends it; time in functions *not* listed stays with
the nearest enclosing span (a property getter called from another layer
is charged to its caller).

``workloads`` names the workloads whose traced window must call the
entry at least once (letters: H ``nfs_allhit``, M ``nfs_allmiss``,
S ``sfs_mixed``, W ``web_zipf``, F ``fleet_coop``).  The self-tests
assert it, which is what catches an entry point that some object
pre-binds past its wrapper.  Known blind spot, by construction:
``LruPolicy.touch`` is rebound per instance to the C method
``OrderedDict.move_to_end``, so cache promotions are charged to the
calling lookup (``core``/``fs``) and ``CacheKernel.touch`` is never
reached from the hot paths.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

_LETTERS: Dict[str, str] = {
    "H": "nfs_allhit", "M": "nfs_allmiss", "S": "sfs_mixed",
    "W": "web_zipf", "F": "fleet_coop"}


class Boundary(NamedTuple):
    layer: str
    target: str
    workloads: Tuple[str, ...]


def _rows(layer: str, module: str, *entries: Tuple[str, str]
          ) -> List[Boundary]:
    return [Boundary(layer, f"repro.{module}:{qual}",
                     tuple(_LETTERS[c] for c in letters))
            for qual, letters in entries]


BOUNDARIES: Tuple[Boundary, ...] = tuple(
    _rows("sim", "sim.engine",
          ("Simulator.run", "HMSWF"),
          ("Simulator.call_later", "HMSF"),
          ("TimerHandle.cancel", "HMSF"),
          ("Event.succeed", "HMSWF"))
    + _rows("sim", "sim.process",
            ("Process.__init__", "HMSWF"))
    + _rows("sim", "sim.resources",
            ("CPU.execute", "HMSWF"),
            ("Link.transmit_then", "HMSWF"),
            ("Resource.acquire", "MSWF"),
            ("Resource.release", "MSWF"),
            ("Store.put", "HMSWF"),
            ("Store.get", "HMSWF"))
    + _rows("sim", "sim.stats",
            ("CounterSet.add", "HMSWF"),
            ("MeterSet.record_latency", "HMSWF"),
            ("ThroughputMeter.record", "HMSWF"))
    + _rows("obs", "obs.metrics",
            ("Counter.add", "HMSWF"),
            ("Histogram.record", "HMSWF"),
            ("Gauge.set", "MSWF"))
    + _rows("obs", "obs.trace",
            ("TraceBus.emit", ""),
            ("TraceBus.complete", ""))
    + _rows("net", "net.stack",
            ("NetworkStack.udp_send", "HMSF"),
            ("NetworkStack.receive", "HMSWF"),
            ("NetworkStack._rx_process", "HMSWF"),
            ("NetworkStack._ack_process", "MSWF"),
            ("NetworkStack.tcp_connect", ""),
            ("TCPConnection.send", "MSWF"))
    + _rows("net", "net.network",
            ("NIC.send", "HMSWF"),
            ("Network.forward", "HMSWF"),
            ("Network._arrive", "HMSWF"))
    + _rows("net", "net.host",
            ("Host.run_tx_hooks", "HMSWF"),
            ("Host.run_rx_hooks", "HMSWF"))
    + _rows("net", "net.buffer",
            ("concat", "HMSWF"),
            ("apply_discipline", "HMSWF"),
            ("chain_from_payload", "HMSWF"),
            ("Payload.split", "HMSWF"),
            ("CompositePayload.split", "MSWF"),
            ("ExtentPayload.slice", "MSWF"),
            ("CompositePayload.slice", "HMSWF"),
            ("BufferChain.payload", "HMSWF"))
    + _rows("copymodel", "copymodel.accounting",
            ("CopyAccountant.compute", "HMSWF"),
            ("CopyAccountant.move", "HMSWF"),
            ("CopyAccountant.charge_ns", "HMSWF"),
            ("CopyAccountant.note_compute", "HMSWF"),
            ("CopyAccountant.note_logical_copy", "HMSWF"),
            ("CopyAccountant.note_physical_copy", "MSWF"),
            ("CopyAccountant.physical_copy", "MSWF"),
            ("CopyAccountant.logical_copy", "HMSWF"),
            ("CopyAccountant.note_checksum", ""),
            ("CopyAccountant.checksum", ""))
    + _rows("copymodel", "copymodel.materialize",
            ("materialize", ""))
    + _rows("cache", "cache.kernel",
            ("CacheKernel.insert", "MSWF"),
            ("CacheKernel.make_room", "MSWF"),
            ("CacheKernel.remove", "SWF"),
            ("CacheKernel.rekey", "S"),
            ("CacheKernel.resize", ""),
            ("CacheKernel.touch", ""))
    + _rows("core", "core.ncache",
            ("NCacheModule.rx_hook", "HMSWF"),
            ("NCacheModule.tx_hook", "HMSWF"),
            ("NCacheModule.try_serve_read", "MWF"),
            ("NCacheModule.lbn_annotator", "S"),
            ("NCacheModule.write_back_chunk", ""))
    + _rows("core", "core.store",
            ("NCacheStore.make_room", "MSWF"),
            ("NCacheStore.insert", "MSWF"),
            ("NCacheStore.remap", "S"),
            ("NCacheStore.bulk_load", ""),
            ("NCacheStore._evicted", "MWF"))
    + _rows("core", "core.keys",
            ("KeyedPayload.slice", "S"))
    + _rows("core", "core.chunk",
            ("Chunk.from_payload", ""))
    + _rows("fs", "fs.vfs",
            ("VFS.read", "HMSF"),
            ("VFS.write", "S"),
            ("VFS.sendfile_payload", "W"),
            ("VFS.read_inode_metadata", "SW"),
            ("VFS.read_dir_metadata", "S"),
            ("VFS.flush_oldest", "S"),
            ("VFS.write_back_entry", ""))
    + _rows("fs", "fs.buffer_cache",
            ("BufferCache.insert", "MSWF"),
            ("BufferCache.make_room", "MSWF"),
            ("BufferCache._evicted", "MWF"))
    + _rows("fs", "fs.localdev",
            ("LocalBlockDevice.read", "MSWF"),
            ("LocalBlockDevice.write", "S"))
    + _rows("fs", "fs.disk",
            ("Raid0.io", "MSWF"),
            ("DiskModel.io", "MSWF"))
    + _rows("nfs", "nfs.server",
            ("NfsServer._enqueue", "HMSF"),
            ("NfsServer._daemon_loop", "HMSF"),
            ("FlushDaemon._loop", "S"))
    + _rows("nfs", "nfs.client",
            ("NfsClient.call", "HMSF"),
            ("NfsClient._on_reply", "HMSF"),
            ("NfsClient._rto_expire", ""))
    + _rows("iscsi", "iscsi.initiator",
            ("IscsiInitiator.read", "MSWF"),
            ("IscsiInitiator.write", "S"),
            ("IscsiInitiator._on_message", "MSWF"),
            ("IscsiInitiator.connect", ""))
    + _rows("iscsi", "iscsi.target",
            ("IscsiTarget._on_message", "MSWF"))
    + _rows("http", "http.khttpd",
            ("KHttpd._conn_worker", "W"))
    + _rows("http", "http.client",
            ("HttpClient.get", "W"),
            ("HttpClient._on_response", "W"))
    + _rows("rpc", "rpc.messages",
            ("XidMatcher.new_xid", "HMSF"),
            ("XidMatcher.expect", "HMSF"),
            ("XidMatcher.resolve", "HMSF"),
            ("XidMatcher.is_pending", "HMSF"),
            ("XidMatcher.cancel", ""))
    + _rows("fleet", "fleet.builder",
            ("Fleet.route", "F"),
            ("Fleet.peer_endpoints", "F"))
    + _rows("fleet", "fleet.peer",
            ("PeerCacheService._handle", "F"),
            ("PeerCacheClient.fetch", "F"),
            ("PeerCacheClient._on_reply", "F"))
    + _rows("fleet", "fleet.hashring",
            ("HashRing.owners", "F"))
    + _rows("workloads", "workloads.microbench",
            ("AllHitReadWorkload._stream", "H"),
            ("SequentialReadWorkload._stream", "M"))
    + _rows("workloads", "workloads.specsfs",
            ("SpecSfsWorkload._worker", "S"))
    + _rows("workloads", "workloads.specweb",
            ("SpecWebWorkload._worker", "W"))
    + _rows("workloads", "workloads.fleetzipf",
            ("FleetZipfWorkload._stream", "F"))
)
