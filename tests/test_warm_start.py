"""Warm start: one bulk pass, equal to the per-block loops it replaced.

``tests/warm_reference.py`` keeps the per-block warm start
(``make_room`` + ``insert`` on the general path) as the oracle.  The
bulk pass must leave both caches exactly as the oracle does — order,
keys, budget, counters, ghosts, payload descriptors — while the cyclic
collector stays out of its way and is handed back as it was found.
"""

from __future__ import annotations

import gc

import pytest

from repro.cache import POLICIES
from repro.core.chunk import Chunk
from repro.core.keys import LbnKey
from repro.core.store import NCacheStore
from repro.experiments import common
from repro.experiments.common import warm_caches
from repro.fs import BLOCK_SIZE, BufferCache, FsImage
from repro.net.buffer import ExtentPayload, JunkPayload
from repro.servers.config import MB, ServerMode
from repro.servers.spec import TestbedSpec
from repro.workloads.specweb import SpecWebWorkload

from warm_reference import cache_state, hottest_blocks, warm_caches_reference

KB = 1024
MODES = (ServerMode.ORIGINAL, ServerMode.BASELINE, ServerMode.NCACHE)


def build(mode: ServerMode, policy: str = "lru"):
    """A small web server (3 MB of cache: 768 pages, or 451 chunks + 256
    key pages), six ``pre/`` files to put in its caches before the warm
    start and a ranked set about 1.6 times the cache, file sizes uneven
    so the budget ends inside a file."""
    testbed = TestbedSpec.web(
        mode, server_ram_bytes=11 * MB, server_kernel_carveout=8 * MB,
        ncache_fs_cache_bytes=1 * MB, cache_policy=policy).build()
    image = testbed.image
    pre = [f"pre/{i}" for i in range(6)]
    for name in pre:
        image.create_file(name, 96 * KB)
    ranked = [f"w/{i:02d}" for i in range(32)]
    for i, name in enumerate(ranked):
        image.create_file(name, 100 * KB + i * 5000)
    testbed.setup()
    return testbed, pre, ranked


def occupy(testbed, pre) -> None:
    """Residents with some history, so the warm start has victims to
    choose between: the ``pre/`` files on the general path and eight
    inode-table pages (no chunk stands behind those, so under NCache
    they are still in the FS cache when its turn comes), then hits on
    every third block (promotions, reference bits) and a few misses."""
    warm_caches_reference(testbed, pre)
    for lbn in range(1, 9):
        testbed.cache.make_room(1)
        testbed.cache.insert(lbn, testbed.image.initial_block_payload(lbn),
                             is_metadata=True)
    store = testbed.ncache.store if testbed.ncache is not None else None
    for name in pre:
        inode = testbed.image.lookup(name)
        for b in range(0, inode.nblocks, 3):
            testbed.cache.lookup(inode.block_lbn(b))
            if store is not None:
                store.lookup_lbn(LbnKey(testbed.ncache.lun,
                                        inode.block_lbn(b)))
    for lbn in range(5):
        testbed.cache.lookup(10_000 + lbn)


class TestEqualsPerBlockReference:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_same_caches_after_evicting_warm_start(self, mode, policy):
        states = []
        for warm in (warm_caches_reference, warm_caches):
            testbed, pre, ranked = build(mode, policy)
            occupy(testbed, pre)
            warm(testbed, ranked)
            states.append(cache_state(testbed))
        reference, bulk = states
        assert bulk == reference
        # The comparison covered what it claims to: victims were chosen
        # (and ghost-recorded) during the warm start, and the budget
        # ended inside a file.
        for name in (("fs", "ncache") if mode is ServerMode.NCACHE
                     else ("fs",)):
            assert bulk[name]["counters"]["evict_clean"] > 0
            assert any(bulk[name]["policy"][ghosts]
                       for ghosts in ("_ghost", "_b1", "_b2")
                       if ghosts in bulk[name]["policy"])
        resident = [sum(inode.block_lbn(b) in testbed.cache
                        for b in range(inode.nblocks)) / inode.nblocks
                    for inode in map(testbed.image.lookup, ranked)]
        assert any(0 < share < 1 for share in resident)
        assert resident[0] == 1 and resident[-1] == 0

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_payloads_are_the_files_content(self, mode):
        testbed, _, ranked = build(mode)
        warm_caches(testbed, ranked)
        image = testbed.image
        hottest = image.lookup(ranked[0])
        for b in range(hottest.nblocks):
            lbn = hottest.block_lbn(b)
            expected = image.file_payload(hottest, b * BLOCK_SIZE,
                                          BLOCK_SIZE)
            if mode is ServerMode.ORIGINAL:
                held = testbed.cache.peek(lbn).payload
            elif mode is ServerMode.NCACHE:
                held = testbed.ncache.store.peek_lbn(
                    LbnKey(testbed.ncache.lun, lbn)).payload()
            else:
                continue
            assert (held.source, held.offset, held.length) == \
                (expected.source, expected.offset, expected.length)
            assert held.same_bytes(image.initial_block_payload(lbn))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_a_name_ranked_twice_is_planned_once(self, mode):
        testbed, _, ranked = build(mode)
        warm_caches_reference(testbed, ranked)
        reference = cache_state(testbed)
        testbed, _, ranked = build(mode)
        warm_caches(testbed, ranked[:3] + ranked[:2] + ranked[3:]
                    + ranked[-1:])
        assert cache_state(testbed) == reference

    def test_fs_pages_never_outnumber_the_chunks_behind_them(self):
        # An FS cache with more pages than the store has chunks gets a
        # key page only for blocks that have a chunk.
        testbed = TestbedSpec.web(
            ServerMode.NCACHE, server_ram_bytes=10 * MB,
            server_kernel_carveout=8 * MB,
            ncache_fs_cache_bytes=1536 * KB).build()
        names = [f"w/{i}" for i in range(8)]
        for name in names:
            testbed.image.create_file(name, 200 * KB)
        testbed.setup()
        warm_caches(testbed, names)
        store = testbed.ncache.store
        assert testbed.cache.capacity_blocks > store.n_chunks
        assert len(testbed.cache) == store.n_chunks
        assert all(store.peek_lbn(LbnKey(testbed.ncache.lun, lbn))
                   for lbn in testbed.cache._entries)


class TestRecordedCells:
    """Whole quick cells that warm-start, against what the per-block
    warm start measured (recorded at the commit before the bulk pass)."""

    def test_figure6a_ncache_cell(self, cell_result):
        result = cell_result("figure6a/ncache/750mb")
        assert result.sim_events == 16688
        assert result.value == {
            "mode": "NCache", "working_set_mb": 750,
            "throughput_mbps": 85.40178571428571,
            "ops_per_sec": 1348.5714285714284,
            "hit_ratio": 0.7272069900572462}

    def test_figure7_original_cell(self, cell_result):
        result = cell_result("figure7/original/75pct")
        assert result.sim_events == 42112
        assert result.value == {
            "mode": "original", "pct_regular": 75,
            "ops_per_sec": 6842.857142857143,
            "throughput_mbps": 53.33705357142858,
            "server_cpu_pct": 85.8371955101974}


class TestCollector:
    @pytest.fixture
    def collector(self):
        """Hand the collector back enabled whatever the test did."""
        yield
        gc.enable()

    @pytest.mark.parametrize("enabled", (True, False))
    def test_left_as_found(self, collector, enabled):
        testbed, _, ranked = build(ServerMode.NCACHE)
        (gc.enable if enabled else gc.disable)()
        warm_caches(testbed, ranked)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", (True, False))
    def test_left_as_found_when_warm_start_raises(self, collector, enabled):
        testbed, _, ranked = build(ServerMode.ORIGINAL)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(FileNotFoundError):
            warm_caches(testbed, ranked[:4] + ["no/such/file"])
        assert gc.isenabled() is enabled

    def test_no_full_collection_across_a_full_geometry_warm_start(self):
        # The benchmark's web_zipf set-up: ~10^6 objects enter the heap
        # (eight full collections, each rescanning all of it, when this
        # ran with the collector on).  The young generations may run
        # once the collector is back, before the count is read.
        testbed = TestbedSpec.web(ServerMode.NCACHE, n_server_nics=2).build()
        load = SpecWebWorkload(testbed, working_set_bytes=750 * MB, seed=1)
        testbed.setup()
        assert gc.isenabled()
        before = gc.get_stats()[2]["collections"]
        warm_caches(testbed, load.paths)
        assert gc.get_stats()[2]["collections"] == before
        assert testbed.ncache.store.n_chunks > 100_000


class TestAllocations:
    def test_blocks_of_one_file_share_one_tag_object(self):
        testbed, _, ranked = build(ServerMode.ORIGINAL)
        warm_caches(testbed, ranked)
        image = testbed.image
        inode = image.lookup(ranked[0])
        first, second = (testbed.cache.peek(inode.block_lbn(b)).payload
                         for b in (0, 1))
        assert first.source is second.source
        assert first.source is image.file_payload(inode, 0, 1).source
        other = image.lookup(ranked[1])
        assert testbed.cache.peek(other.start_lbn).payload.source \
            != first.source

    def test_block_payloads_are_file_payloads(self):
        image = FsImage(capacity_blocks=4096)
        inode = image.create_file("f", 10 * BLOCK_SIZE + 1)
        payloads = image.block_payloads(inode, 7)
        assert [type(p) for p in payloads] == [ExtentPayload] * 7
        for b, payload in enumerate(payloads):
            assert payload.same_bytes(image.file_payload(
                inode, b * BLOCK_SIZE, BLOCK_SIZE))
        assert image.block_payloads(inode, 0) == []
        assert len(image.block_payloads(inode, inode.nblocks)) == 11
        for nblocks in (-1, inode.nblocks + 1):
            with pytest.raises(ValueError):
                image.block_payloads(inode, nblocks)

    def test_plan_is_runs_not_blocks(self):
        testbed, _, ranked = build(ServerMode.ORIGINAL)
        image = testbed.image
        for capacity in (0, 1, 25, 26, 300, 10 ** 6):
            runs = common._hottest_runs(image, ranked, capacity)
            assert len(runs) <= len(ranked)
            assert [(inode, b) for inode, n in runs for b in range(n)] == \
                hottest_blocks(image, ranked, capacity)


class TestBulkLoadContract:
    def chunk(self, lbn: int) -> Chunk:
        return Chunk.from_payload(
            LbnKey(0, lbn), ExtentPayload(7, lbn * BLOCK_SIZE, BLOCK_SIZE),
            1448)

    def test_store_rejects_a_resident_key(self):
        footprint = self.chunk(0).footprint(160, 64)
        store = NCacheStore(8 * footprint)
        with pytest.raises(ValueError, match="resident"):
            store.bulk_load([self.chunk(0), self.chunk(1), self.chunk(0)],
                            footprint)
        # Nothing is left in the kernel that the index does not name.
        assert store.n_chunks == store.n_lbn == 2
        assert store.used_bytes == 2 * footprint
        store.bulk_load([self.chunk(2)], footprint)
        with pytest.raises(ValueError, match="resident"):
            store.bulk_load([self.chunk(1)], footprint)

    def test_buffer_cache_rejects_a_resident_block(self):
        cache = BufferCache(8 * BLOCK_SIZE)
        cache.insert(3, JunkPayload(BLOCK_SIZE))
        with pytest.raises(ValueError, match="resident"):
            cache.bulk_load([(1, JunkPayload(BLOCK_SIZE)),
                             (3, JunkPayload(BLOCK_SIZE))])
        assert sorted(cache._entries) == [1, 3]
        assert cache.used_bytes == cache._kernel.used_bytes \
            == 2 * BLOCK_SIZE

    def test_buffer_cache_dirty_victim_raises(self):
        cache = BufferCache(2 * BLOCK_SIZE)
        for lbn in (1, 2):
            cache.insert(lbn, JunkPayload(BLOCK_SIZE), dirty=True)
        with pytest.raises(RuntimeError, match="dirty victim"):
            cache.bulk_load([(3, JunkPayload(BLOCK_SIZE))])

    def test_buffer_cache_pages_are_clean_data(self):
        cache = BufferCache(4 * BLOCK_SIZE)
        cache.bulk_load((lbn, JunkPayload(BLOCK_SIZE)) for lbn in range(6))
        assert [lbn for lbn, _ in cache._kernel.items()] == [2, 3, 4, 5]
        entry = cache.peek(5)
        assert (entry.dirty, entry.is_metadata, entry.pins) == \
            (False, False, 0)
        assert entry in cache._kernel
        assert cache.kernel_metrics.evict_clean.value == 2
