"""Fleet layer: hash ring, single-node identity, cooperative caching."""

import pytest

from repro.experiments.common import scaled_memory_config
from repro.fleet import ChurnSchedule, HashRing
from repro.fs import BLOCK_SIZE
from repro.servers import ClusterSpec, ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from repro.workloads import SequentialReadWorkload, SpecWebWorkload
from repro.workloads.fleetzipf import FleetZipfWorkload

KB = 1024
MB = 1 << 20


class TestHashRing:
    def test_deterministic(self):
        a = HashRing(range(8), vnodes=32, seed=5)
        b = HashRing(range(8), vnodes=32, seed=5)
        assert all(a.owners(k, 3) == b.owners(k, 3) for k in range(200))

    def test_seed_changes_layout(self):
        a = HashRing(range(8), vnodes=32, seed=0)
        b = HashRing(range(8), vnodes=32, seed=1)
        assert any(a.owner(k) != b.owner(k) for k in range(200))

    def test_owners_distinct_and_counted(self):
        ring = HashRing(range(8), vnodes=32)
        for k in range(100):
            owners = ring.owners(k, 3)
            assert len(owners) == 3
            assert len(set(owners)) == 3

    def test_distribution_roughly_even(self):
        ring = HashRing(range(8), vnodes=64)
        counts = {n: 0 for n in range(8)}
        for k in range(2000):
            counts[ring.owner(k)] += 1
        assert min(counts.values()) > 0
        assert max(counts.values()) < 4 * (2000 / 8)

    def test_stability_under_node_removal(self):
        # Consistent hashing: dropping one node only moves that node's keys.
        full = HashRing(range(8), vnodes=64)
        smaller = HashRing([n for n in range(8) if n != 3], vnodes=64)
        moved = sum(1 for k in range(1000)
                    if full.owner(k) != 3
                    and smaller.owner(k) != full.owner(k))
        assert moved == 0


class TestHashRingMembership:
    """Live add/remove: the consistent-hashing property battery."""

    KEYS = 2000
    SEEDS = range(5)

    def test_add_node_moves_about_one_nth(self):
        # Growing 8 -> 9 should move ~1/9 of keys, all onto the new node.
        ideal = 1.0 / 9.0
        for seed in self.SEEDS:
            ring = HashRing(range(8), vnodes=64, seed=seed)
            before = {k: ring.owner(k) for k in range(self.KEYS)}
            ring.add_node(8)
            moved = 0
            for k, old in before.items():
                new = ring.owner(k)
                if new != old:
                    moved += 1
                    assert new == 8, (seed, k)  # survivors keep their keys
            assert ideal / 3 < moved / self.KEYS < ideal * 3, seed

    def test_remove_node_moves_only_its_keys(self):
        for seed in self.SEEDS:
            ring = HashRing(range(8), vnodes=64, seed=seed)
            before = {k: ring.owner(k) for k in range(self.KEYS)}
            ring.remove_node(3)
            for k, old in before.items():
                if old != 3:
                    assert ring.owner(k) == old, (seed, k)

    def test_membership_change_never_reorders_survivors(self):
        # The replica walk over surviving nodes keeps its relative order:
        # removing a node just deletes it from every key's owner list.
        for seed in self.SEEDS:
            ring = HashRing(range(6), vnodes=64, seed=seed)
            before = {k: ring.owners(k, 6) for k in range(500)}
            ring.remove_node(2)
            for k, old in before.items():
                expected = [n for n in old if n != 2]
                assert ring.owners(k, 5) == expected, (seed, k)

    def test_rejoining_identical_node_restores_assignment(self):
        for seed in self.SEEDS:
            ring = HashRing(range(8), vnodes=64, seed=seed)
            ring.remove_node(3)
            ring.add_node(3)
            fresh = HashRing(range(8), vnodes=64, seed=seed)
            assert all(ring.owners(k, 3) == fresh.owners(k, 3)
                       for k in range(500))

    def test_membership_errors(self):
        ring = HashRing(range(2), vnodes=16)
        with pytest.raises(ValueError):
            ring.add_node(1)        # already present
        with pytest.raises(ValueError):
            ring.remove_node(7)     # not on the ring
        ring.remove_node(0)
        with pytest.raises(ValueError):
            ring.remove_node(1)     # cannot empty the ring


def _events(trace):
    return [(ev.name, ev.cat, ev.ph, ev.ts, ev.dur, ev.tid,
             tuple(sorted((ev.args or {}).items())))
            for ev in trace.events]


class TestSingleNodeIdentity:
    """ClusterSpec(n_servers=1) is byte-identical to the bare testbed."""

    def _run_nfs(self, build):
        testbed = build()
        testbed.sim.trace.enable()
        workload = SequentialReadWorkload(
            request_size=8192, file_size=1 * MB,
            streams_per_client=2).bind(testbed)
        testbed.setup()
        workload.run(until=0.02)
        return _events(testbed.sim.trace)

    def _run_web(self, build):
        testbed = build()
        testbed.sim.trace.enable()
        workload = SpecWebWorkload(working_set_bytes=2 * MB).bind(testbed)
        testbed.setup()
        workload.run(until=0.02)
        return _events(testbed.sim.trace)

    def test_nfs_identical_event_stream(self):
        spec = TestbedSpec.nfs(ServerMode.NCACHE)
        direct = self._run_nfs(spec.build)
        via_fleet = self._run_nfs(
            lambda: ClusterSpec(testbed=spec).build().nodes[0].testbed)
        assert direct == via_fleet
        assert len(direct) > 0

    def test_web_identical_event_stream(self):
        spec = TestbedSpec.web(ServerMode.NCACHE)
        direct = self._run_web(spec.build)
        via_fleet = self._run_web(
            lambda: ClusterSpec(testbed=spec).build().nodes[0].testbed)
        assert direct == via_fleet
        assert len(direct) > 0


def _coop_fleet(n_servers=2, cooperative=True):
    return ClusterSpec(
        testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                **scaled_memory_config(16)),
        n_servers=n_servers, replication=n_servers, cooperative=cooperative,
        group_blocks=8).build()


def _read_file(fleet, node_index, path, nblocks):
    testbed = fleet.nodes[node_index].testbed
    def reads():
        fh = testbed.file_handle(path)
        client = testbed.clients[0]
        for i in range(nblocks):
            yield from client.read(fh, i * BLOCK_SIZE, BLOCK_SIZE)
    run_until_complete(fleet.sim,
                       start(fleet.sim, reads(), name=f"read-{node_index}"))


class TestCooperativeCaching:
    NBLOCKS = 8

    def test_warm_peer_serves_all_misses(self):
        fleet = _coop_fleet()
        fleet.create_file("f", self.NBLOCKS * BLOCK_SIZE)
        fleet.setup()
        _read_file(fleet, 0, "f", self.NBLOCKS)
        backend_before = fleet.backend_reads()
        _read_file(fleet, 1, "f", self.NBLOCKS)
        assert fleet.counter_sum("fleet.peer_hit") == self.NBLOCKS
        assert fleet.backend_reads() == backend_before

    def test_without_cooperation_misses_hit_backend(self):
        fleet = _coop_fleet(cooperative=False)
        fleet.create_file("f", self.NBLOCKS * BLOCK_SIZE)
        fleet.setup()
        _read_file(fleet, 0, "f", self.NBLOCKS)
        backend_before = fleet.backend_reads()
        _read_file(fleet, 1, "f", self.NBLOCKS)
        assert fleet.counter_sum("fleet.peer_probe") == 0
        assert fleet.backend_reads() > backend_before

    def test_peer_endpoints_exclude_self(self):
        fleet = _coop_fleet(n_servers=2)
        for lbn in range(0, 64, 8):
            for node in fleet.nodes:
                endpoints = fleet.peer_endpoints(lbn, exclude=node.index)
                assert all(f"s{node.index}." not in ep.ip
                           for ep in endpoints)


class TestEmptyScheduleIdentity:
    """A fleet with an empty ChurnSchedule is byte-identical to the
    static fleet: the dynamics machinery must not add a single event."""

    def _run(self, churn):
        fleet = ClusterSpec(
            testbed=TestbedSpec.nfs(ServerMode.NCACHE,
                                    flush_interval_s=None,
                                    **scaled_memory_config(16)),
            n_servers=2, replication=2, cooperative=True,
            group_blocks=8, churn=churn).build()
        fleet.sim.trace.enable()
        load = FleetZipfWorkload(
            n_files=8, file_size=64 * KB, request_size=16 * KB,
            n_streams=4, think_time_s=0.0005).bind(fleet)
        fleet.setup()
        load.start()
        fleet.sim.run(until=0.05)
        return _events(fleet.sim.trace)

    def test_empty_schedule_byte_identical_to_static(self):
        static = self._run(None)
        empty = self._run(ChurnSchedule())
        assert static == empty
        assert len(static) > 0


class TestFleetScalingExperiment:
    @pytest.mark.cells("fleet_scaling/n4/r2/coop", "fleet_scaling/n4/r2/solo")
    def test_coop_cuts_backend_reads(self, cell_result):
        coop, solo = (cell_result(f"fleet_scaling/n4/r2/{how}").value
                      for how in ("coop", "solo"))
        assert coop["backend_per_kop"] < solo["backend_per_kop"]
        assert coop["backend_reads"] < solo["backend_reads"]
        assert coop["peer_hit_pct"] > 0
