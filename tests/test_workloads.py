"""Workload generators: file sets, distributions, trace player."""

import pytest

from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.workloads import (
    AllHitReadWorkload,
    SequentialReadWorkload,
    SpecSfsWorkload,
    SpecWebWorkload,
    TracePlayer,
    TraceRecord,
    build_file_set,
    hot_cold_trace,
    mixed_trace,
    sequential_read_trace,
)

MB = 1 << 20


def nfs_tb(mode=ServerMode.ORIGINAL, **overrides):
    testbed = TestbedSpec.nfs(mode, flush_interval_s=None,
                              **overrides).build()
    testbed.setup()
    return testbed


class TestMicrobench:
    def test_sequential_creates_per_stream_files(self):
        testbed = nfs_tb()
        workload = SequentialReadWorkload(testbed, 32768,
                                          file_size=8 * MB,
                                          streams_per_client=2)
        assert len(workload._handles) == 4
        for c in range(2):
            for s in range(2):
                assert testbed.image.lookup(f"seqread-{c}-{s}")

    def test_sequential_rejects_unaligned(self):
        testbed = nfs_tb()
        with pytest.raises(ValueError):
            SequentialReadWorkload(testbed, 1000)

    def test_sequential_produces_throughput(self):
        testbed = nfs_tb()
        workload = SequentialReadWorkload(testbed, 32768, file_size=8 * MB,
                                          streams_per_client=2)
        workload.start()
        testbed.warmup_then_measure(0.05, 0.1)
        assert testbed.meters.throughput.bytes.value > 0
        assert testbed.meters.latency.count > 0

    def test_allhit_prewarm_fills_cache(self):
        testbed = nfs_tb()
        workload = AllHitReadWorkload(testbed, 16384, file_size=1 * MB)
        run_until_complete(testbed.sim, workload.prewarm())
        assert testbed.cache.counters["cache.bcache.hit"].value >= 0
        assert len(testbed.cache) >= 256  # 1 MB of 4 KB blocks

    def test_allhit_steady_state_no_storage_traffic(self):
        testbed = nfs_tb()
        workload = AllHitReadWorkload(testbed, 16384, file_size=1 * MB)
        run_until_complete(testbed.sim, workload.prewarm())
        served = testbed.target.commands_served
        workload.start()
        testbed.warmup_then_measure(0.02, 0.05)
        assert testbed.target.commands_served == served


class TestSpecSfs:
    def test_file_set_sizing(self):
        testbed = nfs_tb()
        workload = SpecSfsWorkload(testbed, fs_size_bytes=256 * MB,
                                   active_fraction=0.10,
                                   file_size=256 * 1024)
        expected = int(256 * MB * 0.10) // (256 * 1024)
        assert workload.n_files == expected
        assert len(workload.handles) == expected

    def test_pct_regular_validation(self):
        testbed = nfs_tb()
        with pytest.raises(ValueError):
            SpecSfsWorkload(testbed, pct_regular=1.5)

    def test_extent_picks_are_aligned_and_in_file(self):
        testbed = nfs_tb()
        workload = SpecSfsWorkload(testbed, fs_size_bytes=64 * MB)
        from repro.sim.rng import substream

        rng = substream(1, "t")
        for _ in range(200):
            offset, size = workload._pick_extent(rng)
            assert offset % size == 0
            assert offset + size <= workload.file_size

    def test_generates_load(self):
        testbed = nfs_tb()
        workload = SpecSfsWorkload(testbed, fs_size_bytes=64 * MB,
                                   outstanding_per_client=2)
        workload.start()
        testbed.warmup_then_measure(0.05, 0.1)
        assert testbed.meters.throughput.ops.value > 0


class TestSpecWeb:
    def test_build_file_set_hits_target_size(self):
        sizes = build_file_set(10 * MB)
        assert abs(sum(sizes) - 10 * MB) <= max(sizes)

    def test_build_file_set_class_mix(self):
        sizes = build_file_set(50 * MB)
        small = sum(1 for s in sizes if s == 16 * 1024)
        assert small / len(sizes) == pytest.approx(0.35, abs=0.05)

    def test_workload_creates_files(self):
        testbed = TestbedSpec.web(connections_per_client=1).build()
        testbed.setup()
        workload = SpecWebWorkload(testbed, working_set_bytes=5 * MB)
        assert len(workload.paths) == len(workload.sizes)
        assert 30_000 < workload.mean_page_size < 120_000
        for path in workload.paths[:5]:
            assert testbed.image.lookup(path)

    def test_deterministic_for_seed(self):
        spec = TestbedSpec.web(connections_per_client=1)
        t1 = spec.build()
        w1 = SpecWebWorkload(t1, working_set_bytes=5 * MB, seed=5)
        t2 = spec.build()
        w2 = SpecWebWorkload(t2, working_set_bytes=5 * MB, seed=5)
        assert w1.sizes == w2.sizes
        assert [w1.sampler.sample() for _ in range(20)] == \
            [w2.sampler.sample() for _ in range(20)]


class TestTracePlayer:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            TraceRecord("erase", "f")

    def test_synthetic_sequential_trace(self):
        trace = sequential_read_trace("f", 64 * 1024, 16 * 1024)
        assert len(trace) == 4
        assert [r.offset for r in trace] == [0, 16384, 32768, 49152]

    def test_hot_cold_trace_shape(self):
        trace = hot_cold_trace(100, ["hot"], ["cold1", "cold2"], 0.9,
                               4096, 64 * 1024)
        hot_count = sum(1 for r in trace if r.path == "hot")
        assert hot_count > 60
        assert all(r.op == "read" for r in trace)

    def test_mixed_trace_has_metadata_ops(self):
        trace = mixed_trace(200, ["a", "b"], 0.8, 4096, 64 * 1024,
                            metadata_fraction=0.3)
        meta = sum(1 for r in trace if r.op in ("getattr", "lookup"))
        assert 30 <= meta <= 90

    def test_player_creates_files_and_completes(self):
        testbed = nfs_tb()
        trace = sequential_read_trace("traced.bin", 256 * 1024, 32 * 1024)
        player = TracePlayer(testbed, trace, concurrency=2)
        done = player.start()
        run_until_complete(testbed.sim, done)
        assert player.completed == len(trace)
        assert testbed.image.lookup("traced.bin").size >= 256 * 1024

    def test_player_write_ops_reach_cache(self):
        testbed = nfs_tb()
        trace = [TraceRecord("write", "w.bin", 0, 8192),
                 TraceRecord("read", "w.bin", 0, 8192),
                 TraceRecord("getattr", "w.bin"),
                 TraceRecord("lookup", "w.bin")]
        player = TracePlayer(testbed, trace, concurrency=1)
        run_until_complete(testbed.sim, player.start())
        assert player.completed == 4

    def test_timed_replay_honours_timestamps(self):
        testbed = nfs_tb()
        trace = [TraceRecord("getattr", "t.bin", timestamp=0.0),
                 TraceRecord("getattr", "t.bin", timestamp=0.2)]
        player = TracePlayer(testbed, trace, timed=True)
        run_until_complete(testbed.sim, player.start())
        assert testbed.sim.now >= 0.2
