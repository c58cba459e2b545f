"""Experiment machinery: protocols, scaled geometry, warm-start details,
and the one measurement protocol."""

from types import SimpleNamespace

from repro.experiments import common
from repro.experiments.common import (
    ALL_MODES,
    FULL,
    NFS_REQUEST_SIZES,
    QUICK,
    WEB_REQUEST_SIZES,
    measure,
    measure_segments,
    per_kop,
    protocol,
    scaled_memory_config,
    warm_caches,
)
from repro.servers import MB, BaseTestbed, ServerMode, TestbedConfig, \
    TestbedSpec
from repro.workloads.base import WorkloadBase


class TestProtocol:
    def test_quick_shorter_than_full(self):
        assert QUICK.measure_s < FULL.measure_s
        assert QUICK.warmup_s < FULL.warmup_s

    def test_protocol_selector(self):
        assert protocol(True) is QUICK
        assert protocol(False) is FULL

    def test_request_size_grids(self):
        assert NFS_REQUEST_SIZES == (4096, 8192, 16384, 32768)
        assert WEB_REQUEST_SIZES[-1] == 131072

    def test_all_modes_covers_three(self):
        assert len(ALL_MODES) == 3


class TestScaledMemory:
    def test_scale_one_is_identity(self):
        assert scaled_memory_config(1) == {}

    def test_ratios_preserved(self):
        overrides = scaled_memory_config(4)
        cfg = TestbedConfig(mode=ServerMode.NCACHE, **overrides)
        full = TestbedConfig(mode=ServerMode.NCACHE)
        assert cfg.cache_memory_bytes * 4 == full.cache_memory_bytes
        assert cfg.fs_cache_bytes * 4 == full.fs_cache_bytes
        assert cfg.ncache_capacity_bytes * 4 == full.ncache_capacity_bytes


class _StubTarget(BaseTestbed):
    """A testbed that only records what the protocol asks of it.  The
    clock is a stub too, so ``warmup_then_measure`` is the real one."""

    def __init__(self, calls):
        self.calls = calls
        self.sim = SimpleNamespace(now=0.0, run=self._run)
        self.meters = SimpleNamespace(throughput=SimpleNamespace(
            ops=SimpleNamespace(value=0.0)))
        self.backend = 0

    def _run(self, until):
        self.calls.append(("run", until))
        self.sim.now = until
        self.meters.throughput.ops.value += 10.0
        self.backend += 3

    def setup(self):
        self.calls.append("setup")

    def reset_measurements(self):
        self.calls.append("reset")
        self.meters.throughput.ops.value = 0.0

    def metrics_snapshot(self):
        self.calls.append("snapshot")
        return {"stub": True}


class _StubWorkload(WorkloadBase):
    fleet_aware = True  # bind the stub as it is

    def _bind(self, target):
        self.calls = target.calls

    def start(self):
        self.calls.append("start")


class _StubPrewarmedWorkload(_StubWorkload):
    def prewarm(self):
        self.calls.append("prewarm")
        return SimpleNamespace(triggered=True, failed=False)


class TestMeasure:
    WINDOWS = [("run", QUICK.warmup_s), "reset",
               ("run", QUICK.warmup_s + QUICK.measure_s)]

    def test_order_setup_warm_start_warmup_reset_measure(self):
        calls = []
        target = _StubTarget(calls)
        measure(target, _StubPrewarmedWorkload(target), quick=True)
        assert calls == ["setup", "prewarm", "start"] + self.WINDOWS

    def test_workload_without_prewarm_just_starts(self):
        calls = []
        target = _StubTarget(calls)
        measure(target, _StubWorkload(target), quick=True)
        assert calls == ["setup", "start"] + self.WINDOWS

    def test_before_load_runs_between_warm_and_start(self):
        calls = []
        target = _StubTarget(calls)
        measure(target, _StubPrewarmedWorkload(target), quick=True,
                before_load=lambda: calls.append("before_load"))
        assert calls[:4] == ["setup", "prewarm", "before_load", "start"]

    def test_ranked_list_selects_warm_caches(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            common, "warm_caches",
            lambda target, ranked: calls.append(("warm_caches", ranked)))
        target = _StubTarget(calls)
        measure(target, _StubPrewarmedWorkload(target), quick=True,
                ranked=["hot", "cold"])
        assert calls[:3] == ["setup", ("warm_caches", ["hot", "cold"]),
                             "start"]

    def test_full_mode_uses_the_full_windows(self):
        calls = []
        target = _StubTarget(calls)
        measure(target, _StubWorkload(target), quick=False)
        assert calls[-1] == ("run", FULL.warmup_s + FULL.measure_s)

    def test_report_only_when_asked(self):
        calls = []
        target = _StubTarget(calls)
        measure(target, _StubWorkload(target), quick=True)
        assert "snapshot" not in calls
        reports = {}
        target = _StubTarget(calls)
        measure(target, _StubWorkload(target), quick=True,
                reports=reports, key="cell/1")
        assert reports == {"cell/1": {"stub": True}}
        assert calls[-1] == "snapshot"


class TestMeasureSegments:
    def test_absolute_boundaries_and_diffs(self):
        calls = []
        target = _StubTarget(calls)
        segments = measure_segments(
            target, _StubPrewarmedWorkload(target), 0.3,
            (("a", 1.0), ("b", 2.5)), lambda: target.backend)
        assert calls == ["setup", "prewarm", "start", ("run", 0.3), "reset",
                         ("run", 1.0), ("run", 2.5)]
        # The backend total is a lifetime one (3 already at the reset);
        # each segment records only its own movement.
        assert segments == {"a": {"backend": 3, "ops": 10.0},
                            "b": {"backend": 3, "ops": 10.0}}

    def test_relative_boundaries_chain_from_the_clock(self):
        calls = []
        target = _StubTarget(calls)
        target.sim.now = 0.125  # e.g. what setup() took
        measure_segments(target, _StubWorkload(target), 0.5,
                         (("only", 0.25),), lambda: target.backend,
                         relative=True)
        assert [c for c in calls if c[0] == "run"] \
            == [("run", 0.625), ("run", 0.875)]

    def test_per_kop(self):
        assert per_kop({"backend": 3, "ops": 1500.0}) == 2.0
        assert per_kop({"backend": 3, "ops": 0.0}) == 0.0


class TestWarmStartDetails:
    def make_web(self, mode, ws_files=20):
        testbed = TestbedSpec.web(mode, **scaled_memory_config(8)).build()
        paths = []
        for i in range(ws_files):
            path = f"w/{i:03d}"
            testbed.image.create_file(path, 64 * 1024)
            paths.append(path)
        testbed.setup()
        return testbed, paths

    def test_baseline_warm_pages_are_junk(self):
        from repro.net.buffer import JunkPayload

        testbed, paths = self.make_web(ServerMode.BASELINE)
        warm_caches(testbed, paths)
        inode = testbed.image.lookup(paths[0])
        entry = testbed.cache.peek(inode.start_lbn)
        assert entry is not None
        assert isinstance(entry.payload, JunkPayload)

    def test_original_warm_pages_hold_real_bytes(self):
        testbed, paths = self.make_web(ServerMode.ORIGINAL)
        warm_caches(testbed, paths)
        inode = testbed.image.lookup(paths[0])
        entry = testbed.cache.peek(inode.start_lbn)
        assert entry.payload.materialize() == \
            testbed.image.file_payload(inode, 0, 4096).materialize()

    def test_ncache_warm_serves_data_without_storage_traffic(self):
        from repro.servers.testbed import run_until_complete
        from repro.sim.process import start

        testbed, paths = self.make_web(ServerMode.NCACHE, ws_files=5)
        warm_caches(testbed, paths)
        served = testbed.target.commands_served

        def scenario():
            response, _ = yield from testbed.http_clients[0].get(paths[0])
            assert response.ok

        run_until_complete(testbed.sim, start(testbed.sim, scenario()))
        # Only the (unwarmed) inode-table metadata block may be fetched;
        # the file data itself comes from the warm network-centric cache.
        assert testbed.target.commands_served - served <= 1
        counters = testbed.server_host.counters
        assert counters["ncache.l2_hit"].value + \
            counters["cache.ncache.hit"].value > 0

    def test_warm_lru_order_hottest_most_recent(self):
        # A cache big enough for ~2 of the 8 one-MB files: only the
        # hottest prefix stays resident, and pressure evicts cold-first.
        testbed = TestbedSpec.web(ServerMode.ORIGINAL,
                                  server_ram_bytes=11 * MB,
                                  server_kernel_carveout=8 * MB).build()
        paths = []
        for i in range(8):
            path = f"w/{i:03d}"
            testbed.image.create_file(path, 1 * MB)
            paths.append(path)
        testbed.setup()
        warm_caches(testbed, paths)
        hottest = testbed.image.lookup(paths[0])
        coldest = testbed.image.lookup(paths[-1])
        # The hottest file is fully resident; the coldest is not.
        assert all(hottest.block_lbn(b) in testbed.cache
                   for b in range(hottest.nblocks))
        assert any(coldest.block_lbn(b) not in testbed.cache
                   for b in range(coldest.nblocks))
        # Pressure evicts from the cold end, never the hottest file.
        testbed.cache.make_room(4)
        assert all(hottest.block_lbn(b) in testbed.cache
                   for b in range(hottest.nblocks))
