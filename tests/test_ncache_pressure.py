"""NCache under memory pressure: eviction, writeback, refetch coherence.

A deliberately tiny network-centric cache forces constant chunk
reclamation — including of dirty FHO chunks (emergency writeback) — while
clients keep reading and writing.  The reclaim-coherence machinery
(FS-page invalidation + refetch) and the pins replies take must keep
every reply byte-exact; a key that dangles at substitution raises.
"""

import pytest

from repro.experiments.common import scaled_memory_config
from repro.fs import BLOCK_SIZE
from repro.net.buffer import VirtualPayload
from repro.nfs import read_reply_data
from repro.servers import NfsTestbed, ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start
from repro.workloads import SpecSfsWorkload
from integrity_search import ORDERS, Cell, run

MB = 1 << 20
FILE_BLOCKS = 128


def tiny_ncache_testbed(ncache_chunks: int = 24, fs_blocks: int = 8,
                        sim=None) -> NfsTestbed:
    """A server whose NCache holds ~24 chunks and FS cache 8 pages."""
    chunk_footprint = BLOCK_SIZE + 3 * 160 + 64
    testbed = TestbedSpec.nfs(
        ServerMode.NCACHE,
        server_ram_bytes=64 * MB,
        server_kernel_carveout=64 * MB
        - fs_blocks * BLOCK_SIZE - ncache_chunks * chunk_footprint,
        ncache_fs_cache_bytes=fs_blocks * BLOCK_SIZE,
        flush_interval_s=None).build(sim=sim)
    testbed.image.create_file("press", FILE_BLOCKS * BLOCK_SIZE)
    testbed.setup()
    return testbed


def sfs_cell(seed: int):
    """A cold SPECsfs-style read/write mix on 1/1024 of the machine's
    memory: both caches evict, flushes remap FHO chunks and NCache
    writes back dirty victims of its own.  Returns the testbed after
    one simulated second."""
    testbed = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=0.02,
                              n_server_nics=1, n_daemons=16,
                              **scaled_memory_config(1024)).build()
    testbed.flush_daemon.max_blocks_per_pass = 16
    load = SpecSfsWorkload(testbed, pct_regular=0.75, read_write_ratio=1.0,
                           fs_size_bytes=64 * (1 << 20),
                           outstanding_per_client=4, seed=seed)
    testbed.setup()
    load.start()
    testbed.sim.run(until=testbed.sim.now + 1.0)
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


class TestEvictionPressure:
    def test_scan_larger_than_store_stays_correct(self):
        testbed = tiny_ncache_testbed()
        fh = testbed.file_handle("press")
        inode = testbed.image.lookup("press")

        def scenario():
            for rounds in range(2):
                for b in range(0, FILE_BLOCKS, 4):
                    dgram = yield from testbed.clients[0].read(
                        fh, b * BLOCK_SIZE, 4 * BLOCK_SIZE)
                    expected = testbed.image.file_payload(
                        inode, b * BLOCK_SIZE, 4 * BLOCK_SIZE).materialize()
                    assert read_reply_data(dgram).materialize() == expected

        run_scenario(testbed, scenario())
        counters = testbed.server_host.counters
        # pressure was real
        assert counters["cache.ncache.evict_clean"].value > 0

    def test_dirty_chunk_emergency_writeback(self):
        testbed = tiny_ncache_testbed()
        fh = testbed.file_handle("press")
        inode = testbed.image.lookup("press")
        data = VirtualPayload(71, 0, BLOCK_SIZE)

        def scenario():
            # Dirty one block, then scan far past the store's capacity so
            # the dirty FHO chunk is reclaimed and written back by NCache
            # itself (§3.4's dirty-chunk flush).
            yield from testbed.clients[0].write(fh, 0, data)
            for b in range(8, FILE_BLOCKS, 4):
                yield from testbed.clients[0].read(
                    fh, b * BLOCK_SIZE, 4 * BLOCK_SIZE)
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        counters = testbed.server_host.counters
        assert counters["ncache.writeback"].value >= 1
        # Data survived the round trip through the emergency writeback.
        assert read_reply_data(dgram).materialize() == data.materialize()
        assert testbed.disk_store.read_block(
            inode.block_lbn(0)).materialize() == data.materialize()

    def test_fs_pages_invalidated_on_reclaim(self):
        testbed = tiny_ncache_testbed()
        fh = testbed.file_handle("press")

        def scenario():
            for b in range(0, 64, 4):
                yield from testbed.clients[0].read(
                    fh, b * BLOCK_SIZE, 4 * BLOCK_SIZE)

        run_scenario(testbed, scenario())
        assert testbed.server_host.counters[
            "ncache.fs_page_invalidated"].value >= 0  # may or may not fire
        # Whatever pages remain in the FS cache must be resolvable.
        from repro.core.keys import KeyedPayload
        from repro.net.buffer import flatten_payload

        store = testbed.ncache.store
        for lbn in list(testbed.cache._entries):
            entry = testbed.cache.peek(lbn)
            for leaf in flatten_payload(entry.payload):
                if isinstance(leaf, KeyedPayload):
                    assert store.peek(leaf.fho_key,
                                      leaf.lbn_key) is not None, lbn

    def test_only_lookups_are_cache_traffic(self):
        """``hit + miss`` of ``cache.ncache`` is the number of
        ``lookup_lbn`` / ``lookup_fho`` calls (a ``resolve`` makes one
        or two): the reclaim listener's peeks add nothing."""
        testbed = tiny_ncache_testbed()
        fh = testbed.file_handle("press")
        store = testbed.ncache.store
        calls, peeks = [], []
        for name in ("lookup_lbn", "lookup_fho"):
            def counted(key, inner=getattr(store, name)):
                calls.append(key)
                return inner(key)
            setattr(store, name, counted)

        def peek(fho_key, lbn_key, inner=store.peek):
            peeks.append(lbn_key)
            return inner(fho_key, lbn_key)
        store.peek = peek

        def scenario():
            for b in range(0, FILE_BLOCKS, 4):
                yield from testbed.clients[0].write(
                    fh, b * BLOCK_SIZE, VirtualPayload(b, 0, BLOCK_SIZE))
                yield from testbed.clients[0].read(
                    fh, b * BLOCK_SIZE, 4 * BLOCK_SIZE)
            for b in range(0, FILE_BLOCKS, 4):
                yield from testbed.clients[0].read(
                    fh, b * BLOCK_SIZE, 4 * BLOCK_SIZE)

        run_scenario(testbed, scenario())
        counters = testbed.server_host.counters
        assert counters["cache.ncache.evict_clean"].total > FILE_BLOCKS
        assert peeks  # the reclaim listener did ask
        assert calls and store.counters["cache.ncache.hit"].total \
            + store.counters["cache.ncache.miss"].total == len(calls)

    def test_random_ops_under_pressure_byte_exact(self):
        """Two clients' seeded op streams on this testbed: the search's
        ``pressure`` cells, every READ checked by the content oracle and
        nothing left pinned.  The search's MRU order evicts a fill's
        fresh chunks first, its shuffled order at random; a fill holds
        them until its reply does, so the READ still completes."""
        for seed, order in enumerate(("lru", "mru", "shuffled"), start=1):
            outcome = run(Cell("pressure", "ncache", order, seed))
            assert outcome.verdict == "pass", str(outcome)
            assert outcome.counters["cache.ncache.evict_clean"] > 0

    @pytest.mark.parametrize("order", ["lru"] + sorted(ORDERS))
    def test_no_reply_carries_junk(self, order):
        """A dangling key raises at the TX hook, so a clean run is the
        check; it must have substituted real traffic.  ``sfs_cell``'s
        configuration as a search cell (FIFO ties, content oracle,
        sanitizer).  Before keyed pages were checked at insert and
        replies pinned their chunks, 16 LRU replies and flushes here
        carried junk."""
        outcome = run(Cell("sfs", "ncache", order, 3, shuffle=False))
        assert outcome.verdict == "pass", str(outcome)
        assert outcome.counters["ncache.substituted_replies"] > 100

    def test_room_taken_during_victim_writeback_is_evicted_again(self):
        """Writing back NCache's own dirty victim yields; a concurrent
        insert used to claim the freed room and the waiting insert then
        raised "insert without room".  This cell evicts dirty FHO chunks
        under concurrent writes."""
        testbed = sfs_cell(seed=1)
        counters = testbed.server_host.counters
        assert counters["cache.ncache.evict_dirty"].value > 0
        assert counters["ncache.writeback"].value \
            == counters["cache.ncache.evict_dirty"].value
        store = testbed.ncache.store
        assert store.used_bytes <= store.capacity_bytes
