"""Shared fixtures: simulators, hosts, and miniature testbeds."""

from __future__ import annotations

import functools

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


@pytest.fixture(scope="session")
def cell_result():
    """``cell_result("figure4/ncache/16384")`` — the serial ``RunResult``
    (row, report, ``sim_events``) of one quick cell, simulated once per
    session however many tests read it.  Treat it as read-only."""
    from repro.experiments import SWEEPS
    from repro.experiments.parallel import run_specs

    @functools.lru_cache(maxsize=None)
    def result(label: str):
        spec, = [spec for spec in
                 SWEEPS[label.partition("/")[0]].specs(quick=True)
                 if spec.label == label]
        return run_specs([spec], workers=1)[0]

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
