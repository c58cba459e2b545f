"""Membership dynamics: crash/failover, drain, warmup, golden numbers.

Regenerate the golden (after an *intentional* model change) with::

    PYTHONPATH=src python tests/test_fleet_churn.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.keys import LbnKey
from repro.experiments import fleet_churn
from repro.experiments.common import run_cell, scaled_memory_config
from repro.fleet import ChurnEvent, ChurnSchedule, ClusterSpec
from repro.fs import BLOCK_SIZE
from repro.net.addresses import Endpoint, PEER_PORT
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.engine import SimulationError
from repro.sim.process import start
from repro.workloads.fleetzipf import FleetZipfWorkload

KB = 1024
GOLDEN = Path(__file__).parent / "goldens" / "fleet_churn_quick.json"


def _fleet(n=3, replication=2, cooperative=True, churn=None):
    return ClusterSpec(
        testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                **scaled_memory_config(16)),
        n_servers=n, replication=replication, cooperative=cooperative,
        group_blocks=8, churn=churn).build()


def _zipf_load(fleet, n_streams=16):
    return FleetZipfWorkload(
        n_files=24, file_size=64 * KB, request_size=16 * KB,
        n_streams=n_streams, think_time_s=0.0005).bind(fleet)


def _read_file(fleet, node_index, path, nblocks):
    testbed = fleet.nodes[node_index].testbed

    def reads():
        fh = testbed.file_handle(path)
        client = testbed.clients[0]
        for i in range(nblocks):
            yield from client.read(fh, i * BLOCK_SIZE, BLOCK_SIZE)

    run_until_complete(fleet.sim,
                       start(fleet.sim, reads(), name=f"read-{node_index}"))


class TestChurnSchedule:
    def test_events_sorted_by_time(self):
        schedule = ChurnSchedule((ChurnEvent(0.2, "rejoin", 1),
                                  ChurnEvent(0.1, "crash", 1)))
        assert [e.action for e in schedule.events] == ["crash", "rejoin"]
        assert len(schedule) == 2 and not schedule.empty

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(-1.0, "crash", 0)          # negative time
        with pytest.raises(ValueError):
            ChurnEvent(0.1, "explode", 0)         # unknown action
        with pytest.raises(ValueError):
            ChurnEvent(0.1, "crash")              # node required
        ChurnEvent(0.1, "join")                   # join may omit the node

    def test_cluster_spec_rejects_bad_churn_configs(self):
        schedule = ChurnSchedule((ChurnEvent(0.1, "crash", 0),))
        with pytest.raises(ValueError):            # single node
            ClusterSpec(testbed=TestbedSpec.nfs(ServerMode.NCACHE),
                        churn=schedule)
        with pytest.raises(ValueError):            # web testbed
            ClusterSpec(testbed=TestbedSpec.web(ServerMode.NCACHE),
                        n_servers=2, churn=schedule)

    def test_membership_ops_require_dynamics(self):
        fleet = _fleet()
        fleet.setup()
        with pytest.raises(SimulationError):
            fleet.crash(1)
        assert not fleet.dynamic


class TestCrashUnderLoad:
    """One node fail-stops mid-run, then rejoins cold."""

    @pytest.fixture(scope="class")
    def run(self):
        fleet = _fleet()
        load = _zipf_load(fleet)
        fleet.setup()
        fleet.enable_dynamics()
        load.start()
        sim = fleet.sim
        store = fleet.nodes[1].testbed.ncache.store
        ghost = fleet.nodes[1].testbed.server_host.counters[
            "cache.ncache.ghost_hit"]
        out = {}
        sim.run(until=0.08)
        fleet.crash(1)
        sim.run(until=0.16)
        out["outage_stats"] = fleet.churn_stats()
        fleet.rejoin(1)
        out["used_at_rejoin"] = store.used_bytes
        ghost_mark = ghost.value
        sim.run(until=0.23)
        out["ghost_early"] = ghost.value - ghost_mark
        out["used_mid"] = store.used_bytes
        ghost_mark = ghost.value
        sim.run(until=0.30)
        out["ghost_late"] = ghost.value - ghost_mark
        out["used_end"] = store.used_bytes
        out["final_stats"] = fleet.churn_stats()
        out["failed_streams"] = sum(1 for p in load._processes if p.failed)
        return out

    def test_requests_reroute_to_replicas(self, run):
        assert run["outage_stats"]["failover_reroute"] > 0

    def test_inflight_requests_retry_not_die(self, run):
        assert run["outage_stats"]["inflight_retry"] > 0
        assert run["failed_streams"] == 0

    def test_cold_restart_occupancy_rises_from_zero(self, run):
        assert run["used_at_rejoin"] == 0
        assert run["used_end"] > run["used_mid"] > 0

    def test_ghost_hits_spike_then_decay(self, run):
        # Right after the cold restart the hot set re-misses through the
        # policy's ghost list; once refilled the ghost rate falls off.
        assert run["ghost_early"] > run["ghost_late"]

    def test_warmup_measured(self, run):
        assert run["final_stats"]["warmup_ops"] > 0


class TestGracefulLeave:
    def test_drained_pins_arrive_at_new_owner(self):
        fleet = _fleet(n=2)
        fleet.create_file("f", 8 * BLOCK_SIZE)
        fleet.setup()
        _read_file(fleet, 0, "f", 8)
        leaver = fleet.nodes[0].testbed.ncache.store
        survivor = fleet.nodes[1].testbed.ncache.store
        assert leaver.n_lbn == 8 and survivor.n_lbn == 0
        fleet.enable_dynamics()
        run_until_complete(fleet.sim,
                           start(fleet.sim, fleet.leave(0), name="leave"))
        assert fleet.churn_stats()["drain_pushed"] == 8
        assert fleet.nodes[0].status == "left"
        lun = fleet.nodes[0].testbed.ncache.lun
        inode = fleet.nodes[0].testbed.image.lookup("f")
        for b in range(8):
            key = LbnKey(lun, inode.block_lbn(b))
            assert survivor.peek_lbn(key) is not None
        assert fleet.nodes[1].testbed.server_host.counters[
            "fleet.peer_push"].value == 8

    def test_left_node_exits_the_ring(self):
        fleet = _fleet(n=3)
        fleet.create_file("f", 64 * BLOCK_SIZE)
        fleet.setup()
        fleet.enable_dynamics()
        run_until_complete(fleet.sim,
                           start(fleet.sim, fleet.leave(2), name="leave"))
        assert 2 not in fleet.ring.nodes
        assert fleet.churn_stats()["rebalance_moved_keys"] > 0
        for lbn in range(0, 512, 8):
            assert fleet.route_block(lbn) != 2


class TestPeerProbeToCrashedNode:
    def test_probe_times_out_instead_of_hanging(self):
        # Regression: a probe in flight to a fail-stopped peer must hit
        # the client RTO and count fleet.peer_timeout, not hang the sim.
        fleet = _fleet(n=3, replication=3)
        fleet.create_file("g", 8 * BLOCK_SIZE)
        fleet.setup()
        _read_file(fleet, 1, "g", 8)
        fleet.enable_dynamics()
        fleet.crash(1)
        client = fleet.nodes[0].client
        before = fleet.sim.now
        result = []

        def probe():
            payload = yield from client._fetch_one(
                Endpoint("s1.server-0", PEER_PORT), 0, 1)
            result.append(payload)

        run_until_complete(fleet.sim,
                           start(fleet.sim, probe(), name="probe"))
        assert result == [None]
        # rto plus the send-side compute/transmit slice, nothing more —
        # nowhere near the multi-second NFS retransmission schedule.
        assert fleet.sim.now - before == pytest.approx(client.rto_s,
                                                       abs=0.001)
        assert fleet.nodes[0].testbed.server_host.counters[
            "fleet.peer_timeout"].value == 1

    def test_routing_skips_crashed_owners(self):
        fleet = _fleet(n=3, replication=2)
        fleet.create_file("g", 512 * BLOCK_SIZE)
        fleet.setup()
        fleet.enable_dynamics()
        fleet.crash(1)
        for lbn in range(0, 4096, 8):
            for salt in range(3):
                assert fleet.route_block(lbn, salt) != 1
        # peer endpoints never point at the dark node either
        for lbn in range(0, 4096, 8):
            for node in (0, 2):
                assert all("s1." not in ep.ip
                           for ep in fleet.peer_endpoints(lbn, node))


# -- golden numbers ----------------------------------------------------------

def fleet_churn_quick_point(row):
    """The representative quick-mode point, shaped like the golden."""
    return {k: round(v, 3) if isinstance(v, float) else v
            for k, v in row.items()}


class TestFleetChurnGolden:
    def test_quick_point_within_2pct_of_golden(self, cell_result):
        golden = json.loads(GOLDEN.read_text())
        measured = fleet_churn_quick_point(
            cell_result("fleet_churn/r2/g16/coop").value)
        for field, want in golden.items():
            got = measured[field]
            if isinstance(want, str):
                assert got == want, field
            else:
                assert got == pytest.approx(want, rel=0.02), \
                    f"{field}: measured {got}, golden {want}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    row = run_cell(fleet_churn.SWEEP.cell("r2/g16/coop"))
    GOLDEN.write_text(json.dumps(fleet_churn_quick_point(row), indent=1)
                      + "\n")
    print(f"wrote {GOLDEN}")
