"""The ``copies.*`` bus events: one per movement, equal to the counters.

Table 2 is counted from these events, so they may not drift from the
``copies.*`` counters the experiments report, on any host, under any
mode — and turning the bus on may not move the simulation.
"""

import random

import pytest

from repro.experiments.common import scaled_memory_config
from repro.fleet import ClusterSpec
from repro.fs import BLOCK_SIZE
from repro.net.buffer import VirtualPayload
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.engine import dispatch_count
from repro.sim.process import start
from conftest import CopyWindow

MODES = list(ServerMode)
SEEDS = [1, 2, 3]
COUNTERS = ("copies.physical", "copies.physical_bytes", "copies.logical")


def _counter_totals(hosts):
    return {host.name: [host.counters.totals().get(name, 0)
                        for name in COUNTERS] for host in hosts}


def _event_totals(events, hosts):
    out = {host.name: [0, 0, 0] for host in hosts}
    for ev in events:
        if ev.name == "copies.physical":
            out[ev.args["host"]][0] += 1
            out[ev.args["host"]][1] += ev.args["nbytes"]
        elif ev.name == "copies.logical":
            out[ev.args["host"]][2] += ev.args["nkeys"]
    return out


def checked(sim, hosts, gen):
    """Run ``gen`` to completion in a window; on every host the events
    must add up to exactly what the counters rose by."""
    before = _counter_totals(hosts)
    with CopyWindow(sim) as window:
        run_until_complete(sim, start(sim, gen))
    rose = {name: [a - b for a, b in zip(after, before[name])]
            for name, after in _counter_totals(hosts).items()}
    assert _event_totals(window.events, hosts) == rose
    return window


def _nfs(mode, fs_blocks=None):
    overrides = {}
    if fs_blocks and mode is ServerMode.NCACHE:
        overrides["ncache_fs_cache_bytes"] = fs_blocks * BLOCK_SIZE
    testbed = TestbedSpec.nfs(mode, flush_interval_s=None,
                              **overrides).build()
    if fs_blocks and mode is not ServerMode.NCACHE:
        testbed.cache.capacity_bytes = fs_blocks * BLOCK_SIZE
    testbed.image.create_file("f", 256 * BLOCK_SIZE)
    testbed.setup()
    return testbed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
class TestEventsMatchCounters:
    def test_nfs_paths(self, mode, seed):
        rng = random.Random(seed)
        testbed = _nfs(mode)
        sim, hosts = testbed.sim, testbed.all_hosts()
        client, fh = testbed.clients[0], testbed.file_handle("f")
        inode = testbed.image.lookup("f")
        nblocks = rng.randint(1, 8)
        r_off = rng.randrange(0, 100) * BLOCK_SIZE
        w_blk = rng.randrange(120, 200)
        size = nblocks * BLOCK_SIZE

        def flush():
            for b in range(w_blk, w_blk + nblocks):
                yield from testbed.vfs.flush_lbn(inode.block_lbn(b))

        miss = checked(sim, hosts, client.read(fh, r_off, size))
        hit = checked(sim, hosts, client.read(fh, r_off, size))
        for tag in (1, 2):      # first write, then the overwrite
            checked(sim, hosts, client.write(
                fh, w_blk * BLOCK_SIZE, VirtualPayload(tag, 0, size)))
        flushed = checked(sim, hosts, flush())
        # The windows are not vacuous: the miss crossed the storage
        # target, the flush left the server, and only the original
        # server copies regular data.
        assert miss.physical_copies(where="storage") == 2
        assert flushed.physical_copies(where="storage") == nblocks
        assert ((hit.physical_copies(where="server") == 2)
                is (mode is ServerMode.ORIGINAL))
        assert bool(hit.named("copies.logical")) \
            is (mode is ServerMode.NCACHE)

    def test_khttpd_paths(self, mode, seed):
        testbed = TestbedSpec.web(mode, connections_per_client=1).build()
        testbed.image.create_file(
            "page", random.Random(seed).randint(1, 200_000))
        testbed.setup()
        miss, hit = [checked(testbed.sim, testbed.all_hosts(),
                             testbed.http_clients[0].get("page"))
                     for _ in range(2)]
        # The inode block is copied physically in every mode; regular
        # data only by the original server.
        assert miss.physical_copies(regular_only=False) \
            > miss.physical_copies()
        assert hit.physical_copies(where="server") \
            == (mode is ServerMode.ORIGINAL)

    def test_read_evicting_a_dirty_victim(self, mode, seed):
        rng = random.Random(seed)
        testbed = _nfs(mode, fs_blocks=8)
        sim, hosts = testbed.sim, testbed.all_hosts()
        client, fh = testbed.clients[0], testbed.file_handle("f")
        w_blk = rng.randrange(0, 100)
        checked(sim, hosts, client.write(
            fh, w_blk * BLOCK_SIZE, VirtualPayload(9, 0, 4 * BLOCK_SIZE)))
        writebacks = testbed.cache.counters["bcache.writeback"]
        assert writebacks.total == 0
        window = checked(sim, hosts, client.read(
            fh, rng.randrange(120, 200) * BLOCK_SIZE, 8 * BLOCK_SIZE))
        assert writebacks.total == 4
        # The victims went to the storage target inside the window ...
        assert len([ev for ev in window.named("copies.physical")
                    if ev.args["category"] == "target_write_buf"]) == 4
        if mode is ServerMode.ORIGINAL:
            # ... and each write-back's socket copy on the server is
            # there beside the reply's own.
            sock_tx = [ev.args["nbytes"]
                       for ev in window.named("copies.physical")
                       if ev.args["host"] == "server"
                       and ev.args["category"] == "sock_tx"]
            assert sorted(sock_tx) == [BLOCK_SIZE] * 4 + [8 * BLOCK_SIZE]


@pytest.mark.parametrize("seed", SEEDS)
def test_cooperative_peer_fetch_events_match_counters(seed):
    nblocks = random.Random(seed).randint(1, 8)
    fleet = ClusterSpec(
        testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                **scaled_memory_config(16)),
        n_servers=2, replication=2, cooperative=True, group_blocks=8).build()
    fleet.create_file("f", 8 * BLOCK_SIZE)
    fleet.setup()
    hosts = [host for testbed in fleet.testbeds
             for host in testbed.all_hosts()]

    def read(node):
        testbed = fleet.nodes[node].testbed
        return testbed.clients[0].read(testbed.file_handle("f"), 0,
                                       nblocks * BLOCK_SIZE)

    checked(fleet.sim, hosts, read(0))
    window = checked(fleet.sim, hosts, read(1))
    assert fleet.counter_sum("fleet.peer_hit") == 1
    # The serving peer is a third host working for this request: its
    # key copy into the reply socket is in the window too.
    assert [ev.args["nkeys"] for ev in window.named("copies.logical")
            if ev.args["host"] == "s0.server"] == [nblocks]


def test_metadata_miss_is_metadata_on_every_host():
    """The storage target's socket copy of an inode block carries the
    metadata flag too, not only its disk-buffer copy."""
    testbed = _nfs(ServerMode.NCACHE)
    ino = testbed.image.lookup("f").ino
    with CopyWindow(testbed.sim) as window:
        run_until_complete(testbed.sim, start(
            testbed.sim, testbed.vfs.read_inode_metadata(ino)))
    copies = window.named("copies.physical")
    assert {ev.args["host"] for ev in copies} == {"server", "storage"}
    assert all(ev.args["is_metadata"] for ev in copies)
    assert window.physical_copies() == 0


class TestTracingDoesNotPerturb:
    """The Table 2 NFS scenario, bus on and bus off."""

    @staticmethod
    def _run(mode, enabled):
        testbed = TestbedSpec.nfs(mode, flush_interval_s=None).build()
        if enabled:
            testbed.sim.trace.enable()
        testbed.image.create_file("t2file", 16 << 20)
        fh = testbed.file_handle("t2file")
        inode = testbed.image.lookup("t2file")
        client = testbed.clients[0]

        def scenario():
            yield from client.read(fh, 0, 32768)
            yield from client.read(fh, 0, 32768)
            for tag in (1, 2):
                yield from client.write(fh, 65536,
                                        VirtualPayload(tag, 0, 8192))
            yield from testbed.vfs.flush_lbn(inode.block_lbn(16))
            yield from testbed.vfs.flush_lbn(inode.block_lbn(17))

        dispatched = dispatch_count()
        testbed.setup()
        run_until_complete(testbed.sim, start(testbed.sim, scenario()))
        return (testbed.sim.now, dispatch_count() - dispatched,
                testbed.metrics_snapshot(), testbed.sim.trace.events)

    @pytest.mark.parametrize("mode", MODES)
    def test_on_equals_off_and_off_records_nothing(self, mode):
        *on, on_events = self._run(mode, enabled=True)
        *off, off_events = self._run(mode, enabled=False)
        assert on == off
        assert len(off_events) == 0
        assert any(ev.cat == "copies" for ev in on_events)

    @pytest.mark.parametrize("mode", MODES)
    def test_two_enabled_runs_record_the_same_events(self, mode):
        def listing(events):
            return [(ev.name, ev.ts, ev.tid, sorted(ev.args.items()))
                    for ev in events]

        assert listing(self._run(mode, True)[3]) \
            == listing(self._run(mode, True)[3])
