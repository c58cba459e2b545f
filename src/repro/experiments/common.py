"""Shared experiment machinery: cells, sweeps, the measurement protocol,
warm-start, durations.

Every point of every figure, ablation and fleet run is a :class:`Cell` —
a frozen, picklable value naming the
:class:`~repro.servers.spec.TestbedSpec` (or ``ClusterSpec``), the
workload, the warm-start and the readout — and :func:`run_cell` is the
one place a cell is built and measured: ``spec.build()``, bind the
workload, then :func:`measure` (set up, warm, start the load, warm up,
reset meters, measure) or, when the cell cuts its window into named
segments, :func:`measure_segments`.  The same cell on another machine is
``dataclasses.replace`` (:func:`variant` for the nested config).  A
result is a :class:`Sweep`: a table of cells plus how its rows are
assembled and annotated; :func:`run_sweep` runs one.
``quick=True`` (the default for tests and CI) shrinks the simulated
windows — and, for the cache-geometry experiments, the memory sizes,
keeping all *ratios* intact while cutting wall-clock time.

Warm-start (:func:`warm_caches`) pre-populates the server's caches with a
ranked file set directly, instead of simulating tens of seconds of cache
fill: measurements start from the steady state the paper measures in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from ..analysis.tables import ExperimentResult, pct_gain
from ..core.chunk import Chunk
from ..core.keys import KeyedPayload
from ..net.buffer import BufferFlavor, JunkPayload, SegmentShape
from ..servers.config import ServerMode, TestbedConfig
from ..servers.spec import ClusterSpec, TestbedSpec
from ..sim.engine import collector_paused
from .parallel import RunSpec, run_specs

ALL_MODES = (ServerMode.ORIGINAL, ServerMode.BASELINE, ServerMode.NCACHE)

#: Request sizes of Figures 4 and 5.
NFS_REQUEST_SIZES = (4096, 8192, 16384, 32768)
#: Request sizes of Figure 6(b).
WEB_REQUEST_SIZES = (16384, 32768, 65536, 131072)


@dataclass(frozen=True)
class Protocol:
    """Measurement windows (simulated seconds)."""

    warmup_s: float
    measure_s: float


QUICK = Protocol(warmup_s=0.15, measure_s=0.35)
FULL = Protocol(warmup_s=0.4, measure_s=1.0)


def protocol(quick: bool) -> Protocol:
    """The measurement windows for quick or full mode."""
    return QUICK if quick else FULL


def measure(target: Any, workload: Any, quick: bool, *,
            ranked: Optional[Sequence[str]] = None,
            before_load: Optional[Callable[[], None]] = None,
            reports: Optional[Dict[str, Any]] = None,
            key: str = "") -> None:
    """Run the measurement protocol on a built, workload-bound target.

    Set up the sessions; warm the caches — :func:`warm_caches` over
    ``ranked`` (hottest first) when given, else the workload's own
    ``prewarm()`` if it has one; call ``before_load`` (the one step an
    experiment may put between a warm cache and the load: A7 turns packet
    loss on there); start the load; run the warm-up window, zero every
    meter, run the measurement window.  With ``reports``, the target's
    metrics snapshot is stored under ``key``.
    """
    proto = protocol(quick)
    target.setup()
    if ranked is not None:
        warm_caches(target, ranked)
    else:
        workload.warm()
    if before_load is not None:
        before_load()
    workload.start()
    target.warmup_then_measure(proto.warmup_s, proto.measure_s)
    if reports is not None:
        reports[key] = target.metrics_snapshot()


def measure_segments(target: Any, workload: Any, warm_end: float,
                     segments: Sequence[Tuple[str, float]],
                     backend: Callable[[], float], *,
                     ranked: Optional[Sequence[str]] = None,
                     relative: bool = False
                     ) -> Dict[str, Dict[str, float]]:
    """:func:`measure` with the measured window cut into named segments.

    ``warm_end`` and each segment's end are absolute simulated times —
    what a churn schedule or a phase-shifting workload is written
    against — or, with ``relative``, lengths counted from the previous
    boundary.  ``backend`` reads a lifetime total (it is not zeroed at
    the end of warm-up); each segment records how far it and the
    completed-operation count moved: ``{"backend": ..., "ops": ...}``.
    """
    sim = target.sim

    def at(when: float) -> float:
        return sim.now + when if relative else when

    def totals() -> Tuple[float, float]:
        # Read the fleet's testbeds each time: a join grows the list.
        return backend(), sum(tb.meters.throughput.ops.value
                              for tb in getattr(target, "testbeds",
                                                [target]))

    target.setup()
    if ranked is not None:
        warm_caches(target, ranked)
    workload.run(until=at(warm_end))
    target.reset_measurements()
    measured: Dict[str, Dict[str, float]] = {}
    backend_mark, ops_mark = totals()
    for name, until in segments:
        sim.run(until=at(until))
        backend_now, ops_now = totals()
        measured[name] = {"backend": backend_now - backend_mark,
                          "ops": ops_now - ops_mark}
        backend_mark, ops_mark = backend_now, ops_now
    return measured


@dataclass(frozen=True)
class Cut:
    """A measured window cut into named segments: the arguments of
    :func:`measure_segments`, with ``backend`` taking the built target."""

    warm_end: float
    segments: Tuple[Tuple[str, float], ...]
    backend: Callable[[Any], float]
    relative: bool = False


@dataclass(frozen=True)
class Cell:
    """One point of a sweep, as a picklable value.

    ``label`` names the cell within its sweep and keys its metrics
    report (``<sweep name>/<label>`` names it anywhere); the row is
    ``axes`` plus what ``readout(target, workload)`` returns
    (``readout(target, workload, segments)`` when the window is ``cut``).
    ``workload`` is called with the built target and returns the bound
    workload; ``ranked`` names the workload attribute holding the
    hottest-first file list to warm-start from (``None`` leaves warming
    to the workload's ``prewarm()``); ``before_load`` is called with the
    target between a warm cache and the load.
    """

    label: str
    axes: Dict[str, Any]
    spec: Union[TestbedSpec, ClusterSpec]
    workload: Callable[[Any], Any]
    readout: Callable[..., Dict[str, Any]]
    ranked: Optional[str] = None
    before_load: Optional[Callable[[Any], None]] = None
    cut: Optional[Cut] = None


def variant(cell: Cell, label: str, axes: Dict[str, Any],
            **config: Any) -> Cell:
    """``cell`` under another label, on a machine whose
    ``TestbedConfig`` differs by ``config``."""
    spec = cell.spec
    return replace(cell, label=label, axes=axes, spec=replace(
        spec, config=replace(spec.config, **config)))


def run_cell(cell: Cell, quick: bool = True,
             reports: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build, measure and read one cell; returns its row.

    With ``reports``, the target's metrics snapshot is stored under the
    cell's label; a cut cell's snapshot also carries the churn counters
    (when its cluster has a churn schedule) and the per-segment readings
    (when there is more than one segment).
    """
    target = cell.spec.build()
    workload = cell.workload(target)
    ranked = getattr(workload, cell.ranked) if cell.ranked else None
    cut = cell.cut
    if cut is None:
        measure(target, workload, quick, ranked=ranked,
                before_load=cell.before_load
                and partial(cell.before_load, target),
                reports=reports, key=cell.label)
        return {**cell.axes, **cell.readout(target, workload)}
    segments = measure_segments(
        target, workload, cut.warm_end, cut.segments,
        partial(cut.backend, target), ranked=ranked, relative=cut.relative)
    if reports is not None:
        snapshot = target.metrics_snapshot()
        if getattr(cell.spec, "churn", None):
            snapshot["churn"] = target.churn_stats()
        if len(segments) > 1:
            snapshot["segments"] = segments
        reports[cell.label] = snapshot
    return {**cell.axes, **cell.readout(target, workload, segments)}


#: The readings most cells report, by column.
READINGS: Dict[str, Callable[[Any], float]] = {
    "throughput_mbps": lambda t: t.meters.throughput.mb_per_second(),
    "ops_per_sec": lambda t: t.meters.throughput.ops_per_second(),
    "server_cpu_pct": lambda t: t.server_cpu_utilization() * 100,
    "storage_cpu_pct": lambda t: t.storage_cpu_utilization() * 100,
}


def read(target: Any, workload: Any,
         columns: Sequence[str] = ("throughput_mbps",)) -> Dict[str, float]:
    """The readout of a cell that reports :data:`READINGS` alone
    (``partial(read, columns=...)`` for more than throughput)."""
    return {column: READINGS[column](target) for column in columns}


@dataclass(frozen=True)
class Sweep:
    """One result — a table or a figure — declared as data.

    ``cells(quick)`` lists the sweep's cells (``RunSpec``s for the one
    result whose points are not cells, Table 2).  Each cell's row becomes
    a row of the result unless ``assemble(rows)`` builds them (pairing
    cells into one row, or auditing the source tree for Table 1);
    ``notes(result, quick)`` yields the ``note:`` lines.
    """

    name: str
    title: str
    columns: Tuple[str, ...]
    cells: Callable[[bool], Sequence[Union[Cell, RunSpec]]]
    assemble: Optional[Callable[[List[Any]], Iterable[Dict[str, Any]]]] = None
    notes: Optional[Callable[[ExperimentResult, bool], Iterable[str]]] = None

    def cell(self, label: str, quick: bool = True) -> Cell:
        """The one cell labelled ``label``."""
        cell, = (c for c in self.cells(quick) if c.label == label)
        return cell

    def specs(self, quick: bool = True) -> List[RunSpec]:
        """The cells as the process pool's units of work, labelled
        ``<name>/<cell label>``."""
        return [cell if isinstance(cell, RunSpec) else
                RunSpec(run_cell, (cell, quick), f"{self.name}/{cell.label}")
                for cell in self.cells(quick)]


def fixed_note(text: str) -> Callable[[ExperimentResult, bool], Tuple[str]]:
    """A ``Sweep.notes`` that says the same thing whatever was measured."""
    return lambda result, quick: (text,)


def ncache_gain(result: ExperimentResult, column: str, **at: Any) -> float:
    """Percent by which NCache's ``column`` exceeds original's on the
    rows matching ``at``."""
    return pct_gain(result.value(column, mode="NCache", **at),
                    result.value(column, mode="original", **at))


def run_sweep(sweep: Sweep, quick: bool = True, workers: int = 1,
              trace_sink: Optional[List[Dict[str, Any]]] = None
              ) -> ExperimentResult:
    """Run every cell of ``sweep`` on ``workers`` processes and assemble
    its result; rows, reports and traces come in cell order whatever the
    count.  Tracing is on exactly when ``trace_sink`` is given; the sink
    receives the serialized buses (feed it to
    :func:`repro.obs.trace.write_chrome_trace`).
    """
    results = run_specs(sweep.specs(quick), workers,
                        trace=trace_sink is not None)
    if trace_sink is not None:
        trace_sink.extend(bus for rr in results for bus in rr.trace)
    result = ExperimentResult(sweep.name, sweep.title, list(sweep.columns))
    rows = [rr.value for rr in results]
    for row in sweep.assemble(rows) if sweep.assemble else rows:
        result.add_row(**row)
    for rr in results:
        result.reports.update(rr.report)
    for note in sweep.notes(result, quick) if sweep.notes else ():
        result.add_note(note)
    return result


def per_kop(segment: Dict[str, float]) -> float:
    """Backend reads per 1000 operations over one measured segment."""
    if not segment["ops"]:
        return 0.0
    return 1000.0 * segment["backend"] / segment["ops"]


def warm_caches(testbed, ranked_names: Sequence[str]) -> None:
    """Pre-populate server caches with files, hottest last (MRU).

    ``ranked_names`` is hottest-first (a name listed again is skipped);
    insertion is one coldest-first bulk pass so the LRU order after
    warm-start matches a long-running steady state.  Only what fits
    stays resident, exactly as eviction would leave it.
    """
    mode = testbed.config.mode
    with collector_paused():
        if mode is ServerMode.NCACHE:
            _warm_ncache(testbed, ranked_names)
        else:  # original/baseline: fill the file-system buffer cache
            image, cache = testbed.image, testbed.cache
            block_size = image.block_size
            cache.bulk_load(_coldest_first(
                image,
                _hottest_runs(image, ranked_names, cache.capacity_blocks),
                (lambda lbn: JunkPayload(block_size))
                if mode is ServerMode.BASELINE else None))


def _hottest_runs(image, ranked_names: Sequence[str],
                  capacity: int) -> List[tuple]:
    """The first ``capacity`` blocks of the ranked set as ``(inode,
    n_blocks)`` runs, hottest file first, each name once; the last run
    is cut where the budget ends."""
    runs: List[tuple] = []
    for name in dict.fromkeys(ranked_names):
        if capacity <= 0:
            break
        inode = image.lookup(name)
        n = min(inode.nblocks, capacity)
        runs.append((inode, n))
        capacity -= n
    return runs


def _coldest_first(image, runs: Sequence[tuple],
                   payload_of: Optional[Callable[[int], Any]] = None
                   ) -> Iterator[tuple]:
    """``(lbn, payload)`` of every block of ``runs``, coldest first: the
    file's own content (every warm block is file data, so the image
    hands it out per run instead of re-deriving the owner from each
    LBN), or ``payload_of(lbn)`` where the page holds something else."""
    for inode, n in reversed(runs):
        lbns = range(inode.start_lbn + n - 1, inode.start_lbn - 1, -1)
        if payload_of is None:
            yield from zip(lbns, reversed(image.block_payloads(inode, n)))
        else:
            yield from zip(lbns, map(payload_of, lbns))


def _warm_ncache(testbed, ranked_names: Sequence[str]) -> None:
    """NCache warm-start: chunks in the LBN cache, keys in the FS cache."""
    image = testbed.image
    store = testbed.ncache.store
    cache = testbed.cache
    block_size = image.block_size
    mss = testbed.config.costs.tcp_mss
    # Every warm block is one block cut at the MSS with its checksums
    # known, as if it had arrived over the wire and been verified: one
    # shape for all of them.  Budget in chunk footprints.
    shape = SegmentShape.uniform(block_size, mss, True, BufferFlavor.SK_BUFF)
    footprint = Chunk(0, JunkPayload(block_size), shape).footprint(
        store.per_buffer_overhead, store.per_chunk_overhead)
    # The hottest blocks, one FS key page each, are built as chunks; the
    # colder rest is one warm run whose blocks become chunks at their
    # first touch (DESIGN.md §5), so every key a page holds names a chunk.
    hot: List[tuple] = []
    cold: List[tuple] = []
    left = cache.capacity_blocks
    for inode, n in _hottest_runs(image, ranked_names,
                                  store.capacity_bytes // footprint):
        m = min(n, left)
        left -= m
        if m:
            hot.append((inode, m))
        if m < n:
            start = inode.start_lbn
            cold.append((start + m, n - m, image.data_extent(start)[0],
                         start))
    store.load_run(reversed(cold), shape, footprint)
    # One extent descriptor per block; a buffer list only springs into
    # existence for an observer (DESIGN.md §11).  Built run by run, each
    # run coldest block first.
    chunks: List[Chunk] = []
    for inode, n in reversed(hot):
        start = inode.start_lbn
        payloads = image.block_payloads(inode, n)
        chunks += [Chunk(start + b, payloads[b], shape)
                   for b in range(n - 1, -1, -1)]
    store.bulk_load(chunks, footprint)
    # FS cache: those blocks as key-only pages, each holding its chunk's
    # own key.
    cache.bulk_load([(chunk.key, KeyedPayload(block_size, lbn_key=chunk.key))
                     for chunk in chunks])


def scaled_memory_config(scale: int = 1) -> dict:
    """Config overrides shrinking the server memory geometry by ``scale``.

    All cache-size ratios (RAM : carve-out : FS cache) are preserved, so
    working-set sweeps keep their shape while quick runs stay small.
    """
    if scale == 1:
        return {}
    machine = TestbedConfig()
    return {name: getattr(machine, name) // scale
            for name in ("server_ram_bytes", "server_kernel_carveout",
                         "ncache_fs_cache_bytes")}
