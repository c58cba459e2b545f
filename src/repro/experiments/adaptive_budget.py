"""Adaptive memory-budget arbiter under a phase-shifting workload.

The paper fixes the FS-cache/NCache split at configuration time (§3.4:
the buffer cache is "deliberately small"), which is right for any one
workload but wrong across a day: a read-heavy batch window wants every
byte in the LBN chunk store, while a metadata-heavy (web-style) window
wants a buffer cache big enough for the dentry/inode working set —
blocks that *never* enter the chunk store, because the packet classifier
caches regular data only.

This experiment drives one NCache server through three consecutive
phases — read-heavy (large-file extents over a data set slightly bigger
than the chunk store), write-heavy (whole-block overwrites with
read-backs), and a web-style phase (LOOKUP/GETATTR/READDIR-weighted
traffic over tens of thousands of small files, plus a hot small-file
read mix) — and compares every static split against the
:class:`~repro.cache.arbiter.GhostGradient` controller at the *same
total budget*.  "Web-style" means the access pattern of a web/metadata
server expressed as NFS traffic: the server kind cannot change mid-run,
the working set can.

The score is backend reads per 1000 operations
(:attr:`~repro.iscsi.target.IscsiTarget.reads_served`), per phase, and
the phases are aggregated with *equal weight* (``mean_bpk``): the load
is closed-loop, so a split with better hit rates completes more
operations, and ops-weighting would let the dominant phase's op count
dilute the others (Simpson's paradox between splits).  No static split
wins all three phases — the read phase rewards a minimal buffer cache,
the write and web phases a large one — so the controller, which drains
the buffer cache to its floor while data misses dominate and regrows it
when dirty/metadata ghost hits appear, beats every static point on the
aggregate.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Any, Dict, Generator, Iterator, List, Optional

from ..analysis.tables import ExperimentResult
from ..cache.arbiter import ArbiterSpec
from ..net.buffer import VirtualPayload
from ..nfs.client import NfsClient
from ..nfs.protocol import FileHandle, NfsProc
from ..servers.config import MB, ServerMode
from ..servers.spec import TestbedSpec
from ..servers.testbed import NfsTestbed
from ..sim.engine import Event
from ..sim.process import Process, start
from ..sim.rng import substream
from ..workloads.base import WorkloadBase
from ..workloads.specsfs import _weighted_choice
from .common import (Cell, Cut, Sweep, per_kop, protocol,
                     scaled_memory_config)

KB = 1024

#: Memory-geometry shrink factor (quick / full) — same scheme as the
#: cache-geometry experiments: ratios intact, wall-clock small.
SCALE_QUICK = 16
SCALE_FULL = 4

#: Static buffer-cache budgets to sweep, as fractions of the total
#: cache budget.  0.08 is the configuration-default split (64 MB of
#: 800 MB), so the sweep brackets the paper's choice on both sides.
STATIC_FRACTIONS = (0.02, 0.04, 0.08, 0.16)

#: The adaptive point's controller settings.  The tick is fast relative
#: to the measurement segments (tens of ticks per phase) so the
#: controller converges well inside a phase.
GHOST_SPEC = ArbiterSpec(kind="ghost", tick_s=0.005, step_fraction=0.05,
                         hysteresis=1.5, min_signal=4)

#: Per-phase op mixes.
METADATA_MIX = ((NfsProc.LOOKUP, 0.60), (NfsProc.GETATTR, 0.30),
                (NfsProc.READDIR, 0.10))


def timeline(quick: bool = True) -> Dict[str, float]:
    """Absolute phase boundaries (simulated seconds).

    The warmup runs the read phase, so the controller's steady state at
    ``warm_end`` is the read-tuned split; measurement then spans one
    segment per phase.  Segments are three protocol windows long: a
    phase must outlive its own cold-start transient (cache fill runs at
    disk speed) for the split to matter.
    """
    proto = protocol(quick)
    seg = 3 * proto.measure_s
    warm_end = 2 * proto.warmup_s
    return {
        "warm_end": warm_end,
        "read_end": warm_end + seg,
        "write_end": warm_end + 2 * seg,
        "web_end": warm_end + 3 * seg,
    }


class PhaseShiftWorkload(WorkloadBase):
    """Closed-loop NFS load that changes character at fixed sim times.

    Three file populations are created at bind time:

    * ``abd/*`` — the read phase's data set, sized ~1.15x the largest
      chunk-store budget so the read phase is capacity-bound and every
      byte moved into the chunk store pays off linearly;
    * ``abw/*`` — the write phase's overwrite set;
    * ``abm/*`` — the web phase's small files.  Their payloads are tiny
      and hot (the chunk store absorbs them easily); their *metadata* —
      one dirent block per 64 files, one inode block per 32 — is the
      phase's real working set, and only the FS buffer cache can hold
      it.
    """

    def __init__(self, boundaries: Dict[str, float],
                 total_budget_bytes: int,
                 testbed: Optional[NfsTestbed] = None,
                 streams_per_client: int = 8,
                 seed: int = 29) -> None:
        self.boundaries = dict(boundaries)
        self.streams_per_client = streams_per_client
        self.seed = seed
        block = 4 * KB
        self.data_file_size = 256 * KB
        self.n_data_files = max(
            1, int(1.15 * total_budget_bytes) // self.data_file_size)
        self.write_file_size = 256 * KB
        self.n_write_files = 32
        self.web_file_size = block
        # Metadata footprint is ~192 B/file (64 B dirent + 128 B inode
        # slot); size the metadata working set at ~18% of the total
        # budget — above every static split in STATIC_FRACTIONS.
        self.n_web_files = int(0.18 * total_budget_bytes) // 192
        self.n_web_hot = min(2048, self.n_web_files)
        self.read_extent = 16 * KB
        self._data_handles: List[FileHandle] = []
        self._write_handles: List[FileHandle] = []
        self._web_handles: List[FileHandle] = []
        self._web_names: List[str] = []
        self._write_tag = 0xAB5 << 32
        self._processes: List[Process] = []
        super().__init__(testbed)

    def _bind(self, testbed: NfsTestbed) -> None:
        self.testbed = testbed
        self.data_names: List[str] = []
        for i in range(self.n_data_files):
            name = f"abd/{i:04d}"
            testbed.image.create_file(name, self.data_file_size)
            self._data_handles.append(testbed.file_handle(name))
            self.data_names.append(name)
        for i in range(self.n_write_files):
            name = f"abw/{i:03d}"
            testbed.image.create_file(name, self.write_file_size)
            self._write_handles.append(testbed.file_handle(name))
        for i in range(self.n_web_files):
            name = f"abm/{i:06d}"
            testbed.image.create_file(name, self.web_file_size)
            self._web_handles.append(testbed.file_handle(name))
            self._web_names.append(name)

    def _params(self) -> Dict[str, Any]:
        return {"n_data_files": self.n_data_files,
                "n_write_files": self.n_write_files,
                "n_web_files": self.n_web_files,
                "streams_per_client": self.streams_per_client,
                "boundaries": self.boundaries, "seed": self.seed}

    def start(self) -> None:
        for c, client in enumerate(self.testbed.clients):
            for s in range(self.streams_per_client):
                rng = substream(self.seed, "abp", c, s)
                self._processes.append(
                    start(self.testbed.sim, self._worker(client, rng),
                          name=f"abp-{c}-{s}"))

    # -- op generation -------------------------------------------------------

    def _worker(self, client: NfsClient, rng
                ) -> Generator[Event, Any, None]:
        sim = self.testbed.sim
        meters = self.testbed.meters
        read_end = self.boundaries["read_end"]
        write_end = self.boundaries["write_end"]
        while True:
            issued_at = sim.now
            if sim.now < read_end:
                yield from self._read_op(client, rng, meters)
            elif sim.now < write_end:
                yield from self._write_op(client, rng, meters)
            else:
                yield from self._web_op(client, rng, meters)
            meters.record_latency(sim.now - issued_at)

    def _read_op(self, client, rng, meters):
        fh = self._data_handles[rng.randrange(self.n_data_files)]
        slots = self.data_file_size // self.read_extent
        offset = rng.randrange(slots) * self.read_extent
        dgram = yield from client.read(fh, offset, self.read_extent)
        meters.throughput.record(dgram.message.count)

    def _write_op(self, client, rng, meters):
        fh = self._write_handles[rng.randrange(self.n_write_files)]
        slots = self.write_file_size // self.web_file_size
        offset = rng.randrange(slots) * self.web_file_size
        if rng.random() < 0.8:
            self._write_tag += 1
            data = VirtualPayload(self._write_tag, 0, self.web_file_size)
            dgram = yield from client.write(fh, offset, data)
        else:
            dgram = yield from client.read(fh, offset, self.web_file_size)
        meters.throughput.record(dgram.message.count)

    def _web_op(self, client, rng, meters):
        # Skewed popularity (Zipf-like head): re-references concentrate
        # on the warm head of the namespace, so a larger buffer cache
        # both hits more often and — when too small — produces the
        # recently-evicted re-misses the ghost estimator measures.
        if rng.random() < 0.6:
            fidx = int(self.n_web_files * rng.random() ** 3)
            proc = _weighted_choice(rng, METADATA_MIX)
            if proc is NfsProc.LOOKUP:
                yield from client.lookup(self._web_names[fidx])
            elif proc is NfsProc.READDIR:
                yield from client.call(proc, name=self._web_names[fidx])
            else:
                yield from client.call(proc, fh=self._web_handles[fidx])
            meters.throughput.record(0)
        else:
            fidx = int(self.n_web_hot * rng.random() ** 3)
            dgram = yield from client.read(self._web_handles[fidx], 0,
                                           self.web_file_size)
            meters.throughput.record(dgram.message.count)


def cells(quick: bool = True) -> List[Cell]:
    """The static sweep plus the adaptive point (``split="ghost"``).

    Every point gets the same total cache budget; static points move
    the boundary via ``ncache_fs_cache_bytes``, the adaptive point
    starts from the configuration default and lets the controller move
    bytes.
    """
    t = timeline(quick)
    # Faster disks keep cold-start transients (cache fill, compulsory
    # metadata misses) short relative to the phase segments; every
    # point sees the same disks, so the comparison is unaffected.
    machine = dict(scaled_memory_config(SCALE_QUICK if quick
                                        else SCALE_FULL),
                   inode_table_blocks=4096 if quick else 16384,
                   disk_seek_ms=1.0, disk_rotation_ms=0.5)
    total = machine["server_ram_bytes"] - machine["server_kernel_carveout"]
    splits = {f"{f}": {"ncache_fs_cache_bytes": int(f * total)}
              for f in STATIC_FRACTIONS}
    splits["ghost"] = {"arbiter": GHOST_SPEC}
    return [Cell(
        label=f"adaptive_budget/{split}",
        axes={"split": split},
        spec=TestbedSpec.nfs(ServerMode.NCACHE, **{**machine, **moved}),
        workload=partial(PhaseShiftWorkload, t, total),
        ranked="data_names",
        cut=Cut(t["warm_end"],
                (("read", t["read_end"]), ("write", t["write_end"]),
                 ("web", t["web_end"])),
                attrgetter("target.reads_served")),
        readout=_readout)
        for split, moved in splits.items()]


def _readout(testbed, load, segments) -> Dict[str, float]:
    counters = testbed.server_host.counters
    fs_budget = testbed.arbiter.lease("bcache").budget_bytes
    return {
        "fs_mb": round(fs_budget / MB, 2),
        "read_bpk": per_kop(segments["read"]),
        "write_bpk": per_kop(segments["write"]),
        "web_bpk": per_kop(segments["web"]),
        "mean_bpk": sum(per_kop(s) for s in segments.values()) / 3.0,
        "ops": int(sum(s["ops"] for s in segments.values())),
        "moves": int(counters["arbiter.moves"].total),
        "moved_mb": round(counters["arbiter.moved_bytes"].total / MB,
                          1),
    }


def _notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    statics = [row for row in result.rows if row["split"] != "ghost"]
    ghost = result.value("mean_bpk", split="ghost")
    best = min(statics, key=lambda row: row["mean_bpk"])
    if best["mean_bpk"]:
        saved = 100.0 * (best["mean_bpk"] - ghost) / best["mean_bpk"]
        yield (f"aggregate: the controller's {ghost:.1f} backend reads per "
               f"1000 ops (equal-weight phase mean) beats the best static "
               f"split (fs={best['fs_mb']} MB at {best['mean_bpk']:.1f}) "
               f"by {saved:.1f}% at the same total budget")
    moves = result.value("moves", split="ghost")
    moved = result.value("moved_mb", split="ghost")
    yield (f"the controller made {moves:.0f} moves ({moved:.1f} MB total), "
           f"draining the FS cache for the read phase and regrowing it for "
           f"the web phase's metadata working set")


SWEEP = Sweep(
    "adaptive_budget", "Adaptive cache-budget arbiter vs static splits "
                       "(read-heavy -> write-heavy -> web phases, one run)",
    ("split", "fs_mb", "read_bpk", "write_bpk", "web_bpk", "mean_bpk",
     "ops", "moves", "moved_mb"),
    cells, notes=_notes)
