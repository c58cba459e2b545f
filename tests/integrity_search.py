"""The integrity search: the content oracle over shuffled schedules.

A *cell* is one small system run — a testbed or a fleet, a workload, a
seed — on a :class:`~content_oracle.ShuffledSimulator`, with every
client wrapped by a :class:`~content_oracle.ContentOracle` and a buffer
sanitizer armed.  Its verdict is one of:

* ``pass`` — every READ returned admissible bytes, the run left no
  cyclic garbage, and a cell that runs to completion (``ops``,
  ``pressure``) left no chunk and no FS page pinned;
* ``kill`` — anything else: a READ returned bytes no WRITE admits, a
  key dangled at the NCache TX hook, the sanitizer raised, the run
  stopped making progress (every FS page or chunk locked,
  :class:`~repro.cache.CacheStallError`, or a client call timing out),
  or it left a reference cycle behind.  A stall is a kill: progress
  holds by construction.  So is a leftover cycle: the engine runs with
  the cyclic collector paused because no run makes one (DESIGN.md §11).

A cell's ``order`` is ``lru`` (the kernel's own) or one of the two
victim orders over LRU's list in :data:`ORDERS` — ``mru`` and a seeded
``shuffled`` — which exist only here: :func:`victim_order` patches them
over :meth:`~repro.cache.CacheKernel.iter_victims` for the length of a
cell.  They evict the freshest chunks and pages first, or any, so a
request that needs something it does not hold shows at once.

The cells:

* ``sfs`` — a cold SPECsfs-style read/write mix on 1/1024 of the
  machine's memory, so both caches evict, flushes remap and NCache
  writes back dirty victims of its own (``test_ncache_pressure.sfs_cell``'s
  configuration, any mode, order and seed); ``lossy`` is the same with
  2% of UDP datagrams lost, so calls are retransmitted; ``warm`` is the
  same NCache cell warm-started from its file set: its store holds ten
  times its FS cache, so most warm blocks wait in the store's warm run
  and flushes remap onto their LBNs;
* ``ops`` — two clients issuing seeded read/write/flush/far-read streams
  at one file, then a full-file read: ``ops`` on a roomy server,
  ``pressure`` on ``tiny_ncache_testbed`` (24 NCache chunks, 8 FS pages);
* ``http`` — SPECweb-style GETs over kHTTPd;
* ``fleet`` — the quick ``fleet_churn`` cell (four cooperative nodes)
  until 0.1 s after node 1 crashes.

Run the wide search (the CI ``integrity-search`` job) with::

    PYTHONPATH=src:tests python tests/integrity_search.py --seeds 64

It prints one line per kill, with the cell, the seed, the index of the
engine dispatch that failed and the last trace events before it, and
exits 1 if any cell was killed.  ``--mutants`` runs the mutant matrix
instead: each ``tests/mutants/*.patch`` (:data:`MUTANTS`) is applied
with ``git apply`` and the search must fail on it.  It edits the tree it
runs in, so run it in a scratch checkout.
"""

from __future__ import annotations

import argparse
import gc
import os
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

from content_oracle import ContentOracle, ShuffledSimulator
from repro.cache import CacheKernel
from repro.check import sanitizer as _sanitizer
from repro.experiments import SWEEPS
from repro.experiments.common import scaled_memory_config, warm_caches
from repro.experiments.fleet_churn import timeline
from repro.fs import BLOCK_SIZE
from repro.net.buffer import VirtualPayload
from repro.servers import ServerMode, TestbedSpec
from repro.sim.engine import Simulator
from repro.sim.process import start
from repro.sim.rng import substream
from repro.workloads import SpecSfsWorkload, SpecWebWorkload

MODES = ("original", "ncache")

#: Trace events printed before a kill.
LAST_EVENTS = 12


@dataclass(frozen=True)
class Cell:
    kind: str
    mode: str = "ncache"
    order: str = "lru"
    seed: int = 1
    shuffle: bool = True

    def __str__(self) -> str:
        ties = "" if self.shuffle else "/fifo"
        return f"{self.kind}/{self.mode}/{self.order}/s{self.seed}{ties}"


@dataclass
class Outcome:
    cell: Cell
    verdict: str
    reads: int = 0
    ambiguous: int = 0
    detail: str = ""
    counters: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        line = (f"{self.verdict:5} {self.cell}: {self.reads} reads, "
                f"{self.ambiguous} with more than one admissible content")
        return line + (f"\n      {self.detail}" if self.detail else "")


# -- the victim orders ---------------------------------------------------------

def _mru(seed: int) -> Callable:
    """LRU's list, victims from the most recently used end."""
    def iter_victims(kernel):
        return reversed(kernel._order)
    return iter_victims


def _shuffled(seed: int) -> Callable:
    """LRU's list, victims in a random order drawn from ``seed``: one
    stream per kernel."""
    streams: Dict[CacheKernel, Any] = {}

    def iter_victims(kernel):
        rng = streams.get(kernel)
        if rng is None:
            rng = streams[kernel] = substream(seed, "victims")
        victims = list(kernel._order)
        rng.shuffle(victims)
        return iter(victims)
    return iter_victims


#: The search's victim orders beside LRU: each makes, from a cell's
#: seed, the ``CacheKernel.iter_victims`` both caches run under.
ORDERS: Dict[str, Callable[[int], Callable]] = {"mru": _mru,
                                                "shuffled": _shuffled}


@contextmanager
def victim_order(name: str, seed: int = 1) -> Iterator[None]:
    """Every kernel takes its victims in the order ``name`` inside:
    ``lru`` (the kernel's own) or one of :data:`ORDERS`."""
    if name == "lru":
        yield
        return
    with mock.patch.object(CacheKernel, "iter_victims", ORDERS[name](seed)):
        yield


# -- the cells -----------------------------------------------------------------

def _sfs(cell: Cell, sim: Simulator, oracle: ContentOracle,
         loss: float = 0.0, warm: bool = False):
    testbed = TestbedSpec.nfs(ServerMode(cell.mode), flush_interval_s=0.02,
                              n_server_nics=1, n_daemons=16,
                              **scaled_memory_config(1024)).build(sim=sim)
    testbed.flush_daemon.max_blocks_per_pass = 16
    load = SpecSfsWorkload(testbed, pct_regular=0.75, read_write_ratio=1.0,
                           fs_size_bytes=64 * (1 << 20),
                           outstanding_per_client=4, seed=cell.seed)
    oracle.watch(testbed)
    testbed.setup()
    if warm:
        warm_caches(testbed, load.names)
    if loss:
        testbed.network.set_loss(loss, seed=cell.seed)
    load.start()
    sim.run(until=sim.now + 1.0)
    return [testbed]


def _op_streams(cell: Cell, sim: Simulator, oracle: ContentOracle,
                testbed, name: str, nblocks: int, ops: int):
    """Two clients' seeded op streams at one file, then a full read."""
    fh = testbed.file_handle(name)
    oracle.watch(testbed)

    def stream(c: int):
        rng = substream(cell.seed, "ops", c)
        client = testbed.clients[c]
        for step in range(ops):
            op = rng.choice(("read", "write", "flush", "far"))
            block = rng.randrange(nblocks - 3)
            count = rng.randint(1, 4) * BLOCK_SIZE
            if op == "write":
                tag = (cell.seed << 20) | (c << 16) | step
                yield from client.write(fh, block * BLOCK_SIZE,
                                        VirtualPayload(tag, 0, count))
            elif op == "read":
                yield from client.read(fh, block * BLOCK_SIZE, count)
            elif op == "flush":
                yield from testbed.vfs.flush_oldest(8)
            else:  # read far away to churn the caches
                far = (block + nblocks // 2) % (nblocks - 3)
                yield from client.read(fh, far * BLOCK_SIZE, count)

    def scenario():
        yield from _join([start(sim, stream(c)) for c in (0, 1)])
        for b in range(0, nblocks, 8):
            yield from testbed.clients[0].read(
                fh, b * BLOCK_SIZE, min(8, nblocks - b) * BLOCK_SIZE)

    _run_process(sim, scenario())
    return [testbed]


def _ops(cell: Cell, sim: Simulator, oracle: ContentOracle):
    testbed = TestbedSpec.nfs(ServerMode(cell.mode),
                              flush_interval_s=None).build(sim=sim)
    testbed.image.create_file("ops", 64 * BLOCK_SIZE)
    testbed.setup()
    return _op_streams(cell, sim, oracle, testbed, "ops", 64, ops=25)


def _pressure(cell: Cell, sim: Simulator, oracle: ContentOracle):
    from test_ncache_pressure import FILE_BLOCKS, tiny_ncache_testbed

    testbed = tiny_ncache_testbed(sim=sim)
    return _op_streams(cell, sim, oracle, testbed, "press", FILE_BLOCKS,
                       ops=30)


def _http(cell: Cell, sim: Simulator, oracle: ContentOracle):
    testbed = TestbedSpec.web(ServerMode(cell.mode),
                              **scaled_memory_config(256)).build(sim=sim)
    load = SpecWebWorkload(testbed, working_set_bytes=6 << 20,
                           seed=cell.seed)
    oracle.watch(testbed)
    testbed.setup()
    load.start()
    sim.run(until=sim.now + 0.3)
    return [testbed]


def _fleet(cell: Cell, sim: Simulator, oracle: ContentOracle):
    churn = SWEEPS["fleet_churn"].cell("r2/g16/coop")
    with mock.patch("repro.fleet.builder.Simulator", lambda: sim):
        fleet = churn.spec.build()
    for testbed in fleet.testbeds:
        oracle.watch(testbed)
    load = churn.workload(fleet)
    fleet.setup()
    load.run(until=timeline(quick=True)["pre_end"] + 0.1)
    return fleet.testbeds


BUILDERS: Dict[str, Callable] = {"sfs": _sfs,
                                 "lossy": partial(_sfs, loss=0.02),
                                 "warm": partial(_sfs, warm=True),
                                 "ops": _ops, "pressure": _pressure,
                                 "http": _http, "fleet": _fleet}


def _join(processes):
    for proc in processes:
        yield proc


def _run_process(sim: Simulator, gen) -> None:
    from repro.servers.testbed import run_until_complete

    run_until_complete(sim, start(sim, gen))


# -- running -------------------------------------------------------------------

def run(cell: Cell, trace: bool = False) -> Outcome:
    """Run one cell under its own sanitizer; its verdict.

    With ``trace``, every engine dispatch and model event is recorded,
    and a kill reports the failing dispatch's index and the last
    :data:`LAST_EVENTS` events before it.
    """
    sim = ShuffledSimulator(cell.seed) if cell.shuffle else Simulator()
    if trace:
        sim.trace.enable(engine_events=True)
    oracle = ContentOracle()
    testbeds: List[Any] = []
    verdict, detail = "pass", ""
    if cell.kind == "pressure":
        # Its testbed comes from a test module whose first import leaves
        # garbage of its own: import it before the heap is frozen.
        import test_ncache_pressure  # noqa: F401
    with _sanitizer.sanitize(), victim_order(cell.order, cell.seed), \
            own_heap():
        try:
            testbeds = BUILDERS[cell.kind](cell, sim, oracle)
            if cell.kind in ("ops", "pressure"):
                _nothing_pinned(testbeds[0])
            no_cyclic_garbage()
        except Exception as exc:  # the run cannot go on
            verdict = "kill"
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = (f"{type(exc).__name__}: {exc} (at "
                      f"{Path(where.filename).name}:{where.lineno} in "
                      f"{where.name})")
    if oracle.failures:
        verdict, detail = "kill", oracle.failures[0]
    if verdict == "kill" and trace:
        detail += _trace_tail(sim)
    counters: Dict[str, float] = {}
    for testbed in testbeds:
        for name, value in testbed.server_host.counters.snapshot().items():
            counters[name] = counters.get(name, 0) + value
    return Outcome(cell, verdict, oracle.reads, oracle.ambiguous, detail,
                   counters)


def collect_all() -> None:
    """Free everything unreachable.  A dropped testbed takes two full
    collections: the first runs its suspended generators' ``finally``
    blocks and frees nothing, the second frees the graph."""
    gc.collect()
    gc.collect()


@contextmanager
def own_heap() -> Iterator[None]:
    """Inside, a collection sees only what the block allocated: every
    older object is frozen (so a cell pays for a collection of its own
    objects, not of the test session's), and the collector is off, so
    nothing the block leaves unreachable is freed before
    :func:`no_cyclic_garbage` looks."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def no_cyclic_garbage() -> None:
    """Raise if a collection finds anything unreachable: with the target
    still held, a run that made no reference cycle left none.  (Two
    collections: the second finds a cycle that a generator's ``finally``
    resurrected during the first.)"""
    flags = gc.get_debug()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        found = gc.collect() + gc.collect()
    finally:
        gc.set_debug(flags)
    kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    gc.garbage.clear()
    if found:
        raise AssertionError(f"the run left {found} objects in reference "
                             f"cycles: {kinds.most_common(4)}")


def _nothing_pinned(testbed) -> None:
    """A run that completed holds nothing: every pin was released."""
    pages = [e.lbn for e in testbed.cache._entries.values() if e.pinned]
    chunks = [c.key for c in testbed.ncache.store.chunks() if c.pinned] \
        if testbed.ncache is not None else []
    if pages or chunks:
        raise AssertionError(f"left pinned: FS pages {pages}, "
                             f"chunks {[str(k) for k in chunks]}")


def _trace_tail(sim: Simulator) -> str:
    events = sim.trace.events
    index = sum(1 for ev in events if ev.name == "engine.dispatch")
    model = [ev for ev in events if ev.name != "engine.dispatch"]
    lines = [f"\n      at engine dispatch #{index}; the last "
             f"{min(LAST_EVENTS, len(model))} trace events:"]
    lines += [f"        {ev.ts:.6f}s {ev.name} {ev.args}"
              for ev in model[-LAST_EVENTS:]]
    return "\n".join(lines)


def cells(seeds: int) -> Iterator[Cell]:
    """The search: SFS over both data modes × LRU and every victim
    order × ``seeds`` seeds, the lossy, warm-started and op-stream cells
    over the same seeds, and one HTTP and one fleet cell."""
    orders = ["lru"] + sorted(ORDERS)
    for mode in MODES:
        for order in orders:
            for seed in range(1, seeds + 1):
                yield Cell("sfs", mode, order, seed)
    for seed in range(1, seeds + 1):
        order = orders[seed % len(orders)]
        yield Cell("lossy", MODES[seed % 2], order, seed)
        yield Cell("warm", "ncache", order, seed)
        yield Cell("ops", MODES[seed % 2], "lru", seed)
        yield Cell("pressure", "ncache", order, seed)
    yield Cell("http", "ncache", "lru", 1)
    yield Cell("fleet", "ncache", "lru", 1)


def search(seeds: int, first: bool = False, out=sys.stdout
           ) -> Tuple[List[Outcome], int]:
    """Run :func:`cells` (up to the first kill, with ``first``); print
    every kill (rerun with the trace on) and a summary.  Returns the
    outcomes and the number of kills."""
    outcomes = []
    for cell in cells(seeds):
        collect_all()  # the last cell's testbeds
        outcome = run(cell)
        if outcome.verdict == "kill":
            outcome = run(cell, trace=True)
            print(outcome, file=out, flush=True)
        outcomes.append(outcome)
        if first and outcome.verdict == "kill":
            break
    kills = sum(o.verdict == "kill" for o in outcomes)
    print(f"{len(outcomes)} cells: {kills} killed, "
          f"{sum(o.reads for o in outcomes)} reads checked", file=out)
    return outcomes, kills


# -- acceptance by mutation ----------------------------------------------------

MUTANT_DIR = Path(__file__).parent / "mutants"

#: Every ``tests/mutants/*.patch``: what it breaks, and for the four
#: mutants no READ can see (same bytes, other bookkeeping or another
#: scheduling seam), the test that kills each instead.  No READ sees
#: ``run-leaves-a-cycle`` either; the search's cyclic-garbage check
#: kills it.
MUTANTS: Dict[str, Tuple[str, Optional[str]]] = {
    "evict-for-single-pass": (
        "VFS._evict_for makes room once, without re-checking after the "
        "writeback yields", None),
    "insert-chunk-single-pass": (
        "NCacheModule._insert_chunk makes room once, without re-checking "
        "after the writeback yields", None),
    "annotator-no-liveness": (
        "lbn_annotator lets a written block in whose FHO chunk is gone",
        None),
    "fill-unpinned": (
        "a fill pins nothing it holds: neither the chunks a Data-In or an "
        "L2 hit brings nor those behind the pages it locks", None),
    "pin-keys-unpinned": (
        "pin_keys hands a reply its payload unpinned", None),
    "drc-replays-read": (
        "the duplicate-request cache keeps READ replies", None),
    "rx-no-expand-segments": (
        "an RX-hook host takes a substituted chain's lazy descriptors "
        "unexpanded; the bytes are the same, only the re-cached chunks' "
        "shape differs",
        "tests/test_segment_lazy.py::TestWarmStartedRuns::"
        "test_cooperative_peer_rechunks_the_expanded_train"),
    "no-generation-bump": (
        "remap skips the generation bump; generations never affect "
        "content (core/chunk.py)",
        "tests/test_extent.py::TestGenerationOnRemap"),
    "remap-keeps-newer-lbn": (
        "remap treats the LBN entry as the newer and drops the remapped "
        "chunk", None),
    "evict-pinned": (
        "eviction takes pinned pages and chunks, so a reply's segment "
        "descriptor outlives its chunk", None),
    "fill-overwrites-resident": (
        "a fill replaces a resident page (window 1)", None),
    "evict-dirty-before-writeback": (
        "make_room evicts a dirty victim before its writeback "
        "(window 2)", None),
    "data-in-replaces-resident": (
        "a Data-In chunk replaces the chunk a flush remapped onto its LBN "
        "while the read was in flight (window 4)", None),
    "chunk-writeback-no-remap": (
        "NCache writes back a dirty FHO chunk without remapping it, so "
        "an older LBN chunk stays (window 3)", None),
    "warm-run-sheds-hottest": (
        "eviction sheds the store's warm run from its hottest block; the "
        "bytes are the same, only which blocks stay cached differs",
        "tests/test_store_oracle.py"),
    "run-leaves-a-cycle": (
        "a triggered Event keeps a reference to itself; every byte is the "
        "same, but the run leaves cyclic garbage the paused collector "
        "never sees", None),
    "wake-bypasses-push": (
        "Event.succeed pushes its wake-ups onto the heap past "
        "Simulator._push; FIFO ties keep every byte, but the search's "
        "shuffled order no longer reaches them",
        "tests/test_engine_backends.py::TestBackendIdentity::"
        "test_every_wake_up_is_one_push"),
}


def mutant_matrix(seeds: int, out=sys.stdout) -> int:
    """Apply each mutant to this tree with ``git apply``, run the search
    (or the named killer) on it in a subprocess, and revert it.  Returns
    the number of mutants that survived."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}:{root / 'tests'}")
    survivors = 0
    for name, (what, killer) in MUTANTS.items():
        patch = MUTANT_DIR / f"{name}.patch"
        subprocess.run(["git", "apply", str(patch)], cwd=root, check=True)
        try:
            command = ([sys.executable, "-m", "pytest", "-q", killer]
                       if killer else
                       [sys.executable, str(Path(__file__).resolve()),
                        "--seeds", str(seeds), "--first"])
            done = subprocess.run(command, cwd=root, env=env, text=True,
                                  capture_output=True)
        finally:
            subprocess.run(["git", "apply", "-R", str(patch)], cwd=root,
                           check=True)
        killed = done.returncode != 0
        survivors += not killed
        by = killer or "the search"
        print(f"{'killed' if killed else 'SURVIVED'} {name} ({what}) by "
              f"{by}", file=out, flush=True)
        if killed and not killer:
            print("  " + "\n  ".join(
                line for line in done.stdout.splitlines()
                if line.strip()), file=out, flush=True)
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--first", action="store_true",
                        help="stop at the first kill")
    parser.add_argument("--mutants", action="store_true",
                        help="run the mutant matrix instead: the search "
                             "must kill every tests/mutants/*.patch")
    args = parser.parse_args(argv)
    if args.mutants:
        return 1 if mutant_matrix(args.seeds) else 0
    _, kills = search(args.seeds, args.first)
    return 1 if kills else 0


if __name__ == "__main__":
    sys.exit(main())
