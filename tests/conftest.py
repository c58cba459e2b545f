"""Shared fixtures: simulators, hosts, miniature testbeds, and the
session's simulated cells."""

from __future__ import annotations

import functools
from unittest import mock

import pytest

from repro.check import sanitizer as _sanitizer
from repro.copymodel import CopyDiscipline, physical_copies
from repro.fs import (
    BufferCache,
    DiskStore,
    FsImage,
    LocalBlockDevice,
    VFS,
    make_paper_raid,
)
from repro.iscsi import IscsiInitiator, IscsiTarget
from repro.net import Endpoint, Host, Network
from repro.servers import ServerMode, TestbedConfig
from repro.sim import Simulator


@pytest.fixture(autouse=True)
def _buffer_sanitizer():
    """Run every test under its own buffer-lifecycle sanitizer.

    Every violation raises at the call that commits it; a test that
    plants one opens a scope of its own (``sanitize()``) and asserts the
    raise.  Teardown also fails the test on a violation whose raise was
    swallowed on the way out.
    """
    with _sanitizer.sanitize() as san:
        yield san
    assert not san.violations, "buffer sanitizer: " + "; ".join(
        v.format() for v in san.violations)


# -- the session's cells -----------------------------------------------------
#
# A test that reads simulated cells declares them,
# ``@pytest.mark.cells("figure4/ncache/16384", "table2", spec)``: a quick
# cell by its ``<sweep>/<cell>`` label, every quick cell of a sweep by the
# sweep's name, or any other ``RunSpec``.  As collection finishes, the cells
# the selected tests declare go to one two-worker process pool, each
# simulated once under a sanitizer of its own, and the tests that declare
# cells run after all the others, so the pool works while the unit tests
# run.  A selection that declares no cell starts no pool.  No other test
# forks one (``test_tree_invariants``): a fork beside a running pool's
# manager thread can deadlock the child.

_futures: dict = {}  # label -> Future of the cell's RunResult
_reading: frozenset = frozenset()  # what the running test declares


def pytest_configure(config):
    config.addinivalue_line("markers", "cells(*labels_or_specs): the "
                            "simulated cells the test reads")


@functools.lru_cache(maxsize=None)
def _sweep_specs(name: str) -> dict:
    from repro.experiments import SWEEPS

    return {spec.label: spec for spec in SWEEPS[name].specs(quick=True)} \
        if name in SWEEPS else {}


def _declared(item) -> dict:
    """``{label: RunSpec}`` for every cell ``item``'s markers name."""
    specs = {}
    for marker in item.iter_markers("cells"):
        for want in marker.args:
            if not isinstance(want, str):  # a RunSpec
                specs[want.label] = want
                continue
            cells = _sweep_specs(want.partition("/")[0])
            if "/" in want:
                cells = {want: cells[want]} if want in cells else {}
            if not cells:
                raise pytest.UsageError(
                    f"{item.nodeid}: no quick cell is labelled {want!r}")
            specs.update(cells)
    return specs


def _simulate(spec):
    """One cell in a pool worker, under a sanitizer of its own."""
    from repro.experiments.parallel import run_specs

    with _sanitizer.sanitize() as san:
        result, = run_specs([spec])
    if san.violations:  # a violation whose raise the cell swallowed
        raise _sanitizer.SanitizerError("; ".join(
            v.format() for v in san.violations))
    return result


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.get_closest_marker("cells") is not None)


def pytest_collection_finish(session):
    specs: dict = {}
    for item in session.items:
        specs.update(_declared(item))
    if not specs or session.config.option.collectonly:
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked before any thread exists: the pool starts both workers at the
    # first submit, and its manager thread after them.
    pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context(
        "fork"))
    session.config.add_cleanup(lambda: pool.shutdown(cancel_futures=True))
    _futures.update((label, pool.submit(_simulate, spec))
                    for label, spec in specs.items())


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    global _reading
    _reading = frozenset(_declared(item))


def pytest_terminal_summary(terminalreporter):
    if _futures and terminalreporter.verbosity >= 0:  # -v
        terminalreporter.write_line("simulated once each on the cell pool: "
                                    + " ".join(_futures))


@pytest.fixture(scope="session")
def cell_result():
    """``cell_result("figure4/ncache/16384")`` — the ``RunResult`` (row,
    report, ``sim_events``) of a cell the running test declares, simulated
    once per session however many tests read it; a violation the cell
    commits raises here with the worker's message.  Treat it as
    read-only."""
    def result(label: str):
        if label not in _reading:
            raise LookupError(f"{label!r} is not in the running test's "
                              "@pytest.mark.cells")
        return _futures[label].result()

    return result


@pytest.fixture(scope="session")
def sweep_result(cell_result):
    """``sweep_result("table2")`` — ``run_sweep`` of a sweep the running
    test declares by name, in quick mode, on the session's cells."""
    from repro.experiments import SWEEPS, common

    def cached(specs, workers, trace):
        return [cell_result(spec.label) for spec in specs]

    def result(name: str):
        with mock.patch.object(common, "run_specs", cached):
            return common.run_sweep(SWEEPS[name], quick=True)

    return result


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim) -> Network:
    return Network(sim)


@pytest.fixture
def two_hosts(sim, network):
    a = Host(sim, "a")
    b = Host(sim, "b")
    a.add_nic(network, "a0")
    b.add_nic(network, "b0")
    return a, b


class MiniStack:
    """A server + storage pair with VFS, without NFS/HTTP on top."""

    def __init__(self, sim: Simulator, discipline: CopyDiscipline,
                 cache_bytes: int = 8 << 20,
                 image_blocks: int = 1 << 18) -> None:
        self.sim = sim
        self.network = Network(sim)
        self.server = Host(sim, "server")
        self.storage = Host(sim, "storage")
        self.server.add_nic(self.network, "server-0")
        self.storage.add_nic(self.network, "storage-0")
        self.image = FsImage(capacity_blocks=image_blocks)
        self.store = DiskStore(self.image)
        self.raid = make_paper_raid(sim)
        self.target = IscsiTarget(self.storage,
                                  LocalBlockDevice(self.store, self.raid))
        self.initiator = IscsiInitiator(
            self.server, "server-0", Endpoint("storage-0", 3260),
            discipline=discipline)
        self.cache = BufferCache(cache_bytes,
                                 counters=self.server.counters)
        self.vfs = VFS(self.server, self.image, self.cache, self.initiator,
                       discipline)


@pytest.fixture
def mini_stack(sim):
    return MiniStack(sim, CopyDiscipline.PHYSICAL)


def drive(sim: Simulator, gen, name: str = "test"):
    """Run a generator as a process to completion; return its value."""
    from repro.servers.testbed import run_until_complete
    from repro.sim.process import start

    proc = start(sim, gen, name=name)
    run_until_complete(sim, proc)
    return proc.value


class CopyWindow:
    """``with CopyWindow(sim) as w:`` — the bus events recorded while the
    block runs.  With nothing else in flight those are exactly what one
    request caused, which is how Table 2 counts copies per request."""

    def __init__(self, sim: Simulator) -> None:
        self._bus = sim.trace.enable()
        self.events: list = []

    def __enter__(self) -> "CopyWindow":
        self._mark = len(self._bus.events)
        return self

    def __exit__(self, *exc) -> None:
        self.events = self._bus.events[self._mark:]

    def named(self, name: str) -> list:
        return [ev for ev in self.events if ev.name == name]

    def physical_copies(self, where=None, regular_only=True) -> int:
        return physical_copies(self.events, where, regular_only)


@pytest.fixture
def quick_config():
    def make(mode: ServerMode, **overrides) -> TestbedConfig:
        return TestbedConfig(mode=mode, **overrides)

    return make
