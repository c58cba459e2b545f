"""The NCache module itself: caching, substitution, remapping, L2 serve."""

import pytest

from conftest import drive
from repro.cache import CacheStallError
from repro.copymodel import CopyDiscipline
from repro.core import Chunk, FhoKey, KeyedPayload, LbnKey
from repro.core import ncache as ncache_module
from repro.core.ncache import NCacheModule
from repro.core.resize import buffers_for_range
from repro.core.store import NCacheStore
from repro.fs import BLOCK_SIZE
from repro.net import Datagram, Endpoint, Host
from repro.net.buffer import (BufferChain, BytesPayload, ExtentPayload,
                              NetBuffer, VirtualPayload, concat,
                              flatten_payload)
from repro.nfs import read_reply_data
from repro.nfs.protocol import NfsProc, NfsReply
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim.process import start


def ncache_testbed(**overrides):
    testbed = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                              **overrides).build()
    testbed.image.create_file("file", 32 << 20)
    testbed.setup()
    return testbed


def run_scenario(testbed, gen):
    proc = start(testbed.sim, gen)
    run_until_complete(testbed.sim, proc)
    return proc.value


class TestCoalesce:
    """The TX hook does not coalesce placeholder slices: the stack never
    splits them, and a reply that carries split ones substitutes
    byte-exactly without merging them first."""

    @pytest.mark.parametrize("proto", ["udp", "tcp"])
    @pytest.mark.parametrize("keyed", [False, True])
    def test_tx_hook_sees_one_buffer_with_the_whole_message(
            self, sim, two_hosts, proto, keyed):
        a, b = two_hosts
        seen = []

        def hook(dgram):
            seen.append(dgram.chain.buffers)
            return dgram
            yield

        a.add_tx_hook(hook)
        header = BytesPayload(b"h" * 100)
        if keyed:
            data = concat([KeyedPayload(BLOCK_SIZE, lbn_key=LbnKey(0, i))
                           for i in range(8)])
        else:
            data = VirtualPayload(3, 0, 8 * BLOCK_SIZE)
        discipline = CopyDiscipline.LOGICAL
        if proto == "udp":
            b.stack.udp_bind(9, lambda dgram: None)

            def send():
                yield from a.stack.udp_send("a0", 5, Endpoint("b0", 9),
                                            None, data, header=header,
                                            discipline=discipline)
        else:
            def acceptor(conn):
                conn.on_message = lambda conn_, dgram: None

            b.stack.tcp_listen(9, acceptor)

            def send():
                conn = yield from a.stack.tcp_connect("a0", 5,
                                                      Endpoint("b0", 9))
                yield from conn.send(None, data, header=header,
                                     discipline=discipline)

        drive(sim, send())
        (buf,), = seen
        assert buf.payload.length == header.length + data.length
        leaves = flatten_payload(buf.payload)
        assert leaves[0] is header
        if keyed:
            # Every block's placeholder arrives unsplit.
            assert [(leaf.lbn_key, leaf.base_offset, leaf.length)
                    for leaf in leaves[1:]] == \
                [(LbnKey(0, i), 0, BLOCK_SIZE) for i in range(8)]

    def test_adjacent_partial_slices_of_one_chunk_substitute_exactly(
            self, sim, monkeypatch):
        host = Host(sim, "server")
        store = NCacheStore(1 << 20, counters=host.counters, trace=sim.trace)
        module = NCacheModule(host, store)
        key = LbnKey(0, 7)
        data = ExtentPayload(0xC0FFEE, 7 * BLOCK_SIZE, BLOCK_SIZE)
        chunk = Chunk.from_payload(key, data, 1448)
        store.make_room(chunk.footprint(store.per_buffer_overhead,
                                        store.per_chunk_overhead))
        store.insert(chunk)
        ranges = []

        def spy(buffers, offset, length):
            ranges.append((offset, length))
            return buffers_for_range(buffers, offset, length)

        monkeypatch.setattr(ncache_module, "buffers_for_range", spy)
        lookups = []
        resolve = store.resolve
        monkeypatch.setattr(store, "resolve",
                            lambda *keys: lookups.append(keys) or
                            resolve(*keys))
        header = BytesPayload(b"r" * 120)
        split = 1000
        payload = concat([
            header, KeyedPayload(split, lbn_key=key),
            KeyedPayload(BLOCK_SIZE - split, lbn_key=key, base_offset=split)])
        dgram = Datagram(
            protocol="udp", src=Endpoint("server-0", 2049),
            dst=Endpoint("client-0", 900),
            message=NfsReply(xid=1, proc=NfsProc.READ),
            chain=BufferChain([NetBuffer(payload=payload)]),
            n_frames=1, wire_bytes=0)
        drive(sim, module.tx_hook(dgram))
        assert ranges == [(0, split), (split, BLOCK_SIZE - split)]
        assert dgram.chain.payload().materialize() == \
            header.materialize() + data.materialize()
        assert lookups == [(None, key)]  # one chunk, resolved once

    def test_flatten_skips_empty(self):
        payload = concat([BytesPayload(b""), BytesPayload(b"x")])
        assert len(flatten_payload(payload)) == 1


class TestRxCaching:
    def test_read_miss_populates_lbn_cache(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 32768)

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_lbn == 8
        for b in range(8):
            chunk = store.peek_lbn(LbnKey(0, inode.block_lbn(b)))
            assert chunk is not None
            assert chunk.payload().materialize() == \
                testbed.image.file_payload(
                    inode, b * BLOCK_SIZE, BLOCK_SIZE).materialize()

    def test_write_populates_fho_cache_dirty(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        data = VirtualPayload(31, 0, 8192)

        def scenario():
            yield from testbed.clients[0].write(fh, 16384, data)

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_fho == 2
        chunk = store.peek_fho(FhoKey(fh.ino, fh.generation, 16384))
        assert chunk.dirty
        assert chunk.lbn_hint is not None
        assert chunk.payload().materialize() == \
            data.slice(0, BLOCK_SIZE).materialize()

    def test_overwrite_replaces_fho_chunk(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")

        def scenario():
            yield from testbed.clients[0].write(
                fh, 0, VirtualPayload(1, 0, BLOCK_SIZE))
            yield from testbed.clients[0].write(
                fh, 0, VirtualPayload(2, 0, BLOCK_SIZE))

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_fho == 1
        assert store.counters["ncache.overwrite"].value == 1
        chunk = store.peek_fho(FhoKey(fh.ino, fh.generation, 0))
        assert chunk.payload().materialize() == \
            VirtualPayload(2, 0, BLOCK_SIZE).materialize()

    def test_unaligned_write_passes_through_uncached(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        # 2048-byte write: not block aligned -> not cached, but the
        # physical fallback path must still store correct bytes.
        data = VirtualPayload(3, 0, 2048)

        def scenario():
            dgram = yield from testbed.clients[0].write(fh, 0, data)
            return dgram.message

        # The simulated VFS requires block-aligned writes, so the server
        # surfaces an error for the unaligned payload; the module itself
        # must simply not cache it.
        with pytest.raises(ValueError):
            run_scenario(testbed, scenario())
        assert testbed.server_host.counters[
            "ncache.unaligned_write_passthrough"].value == 1


class TestSubstitution:
    def test_read_reply_carries_real_bytes(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 32768)  # miss
            return (yield from testbed.clients[0].read(fh, 0, 32768))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, 0, 32768).materialize()
        assert testbed.server_host.counters[
            "ncache.substituted_replies"].value >= 2

    def test_substituted_frames_reuse_cached_buffers(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 4096)
            return (yield from testbed.clients[0].read(fh, 0, 4096))

        dgram = run_scenario(testbed, scenario())
        # 4 KB block cached as three TCP-mss buffers; reply = header
        # merged into the first + the rest: 3 frames.
        assert dgram.n_frames == 3


class TestRemapping:
    def test_flush_remaps_and_substitutes(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        data = VirtualPayload(41, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.vfs.flush_lbn(inode.block_lbn(0))

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        assert store.n_fho == 0
        chunk = store.peek_lbn(LbnKey(0, inode.block_lbn(0)))
        assert chunk is not None and not chunk.dirty
        assert testbed.disk_store.read_block(
            inode.block_lbn(0)).materialize() == data.materialize()

    def test_read_after_remap_uses_lbn_key(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        data = VirtualPayload(42, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.vfs.flush_lbn(inode.block_lbn(0))
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()

    def test_remap_overwrites_stale_read_data(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        data = VirtualPayload(43, 0, BLOCK_SIZE)

        def scenario():
            yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)  # stale LBN
            yield from testbed.clients[0].write(fh, 0, data)
            yield from testbed.vfs.flush_lbn(inode.block_lbn(0))
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == data.materialize()
        assert testbed.server_host.counters[
            "ncache.remap_overwrite"].value == 1


class TestSecondLevelCache:
    def test_fs_cache_miss_served_from_ncache(self):
        # FS cache of 16 blocks; NCache large.
        testbed = ncache_testbed(ncache_fs_cache_bytes=16 * BLOCK_SIZE)
        fh = testbed.file_handle("file")

        def scenario():
            # Read 32 distinct blocks: FS cache can hold only 16.
            for b in range(32):
                yield from testbed.clients[0].read(fh, b * BLOCK_SIZE,
                                                   BLOCK_SIZE)
            commands = testbed.target.commands_served
            # Re-read the first blocks: FS cache misses, NCache hits.
            for b in range(8):
                yield from testbed.clients[0].read(fh, b * BLOCK_SIZE,
                                                   BLOCK_SIZE)
            return commands, testbed.target.commands_served

        before, after = run_scenario(testbed, scenario())
        assert after == before  # no extra storage traffic
        assert testbed.server_host.counters["ncache.l2_hit"].value >= 8

    def test_l2_served_bytes_correct(self):
        testbed = ncache_testbed(ncache_fs_cache_bytes=16 * BLOCK_SIZE)
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            for b in range(32):
                yield from testbed.clients[0].read(fh, b * BLOCK_SIZE,
                                                   BLOCK_SIZE)
            return (yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, 0, BLOCK_SIZE).materialize()

    def test_l2_placeholders_hold_the_resident_key(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        lbn = testbed.image.lookup("file").block_lbn(0)

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 4 * BLOCK_SIZE)
            return (yield from testbed.ncache.try_serve_read(lbn, 4))

        leaves = flatten_payload(run_scenario(testbed, scenario()))
        store = testbed.ncache.store
        assert [leaf.lbn_key for leaf in leaves] == \
            [LbnKey(0, lbn + i) for i in range(4)]
        for leaf in leaves:
            assert leaf.lbn_key is store.peek_lbn(leaf.lbn_key).key


class TestAnnotator:
    def test_annotator_stamps_lbn(self):
        testbed = ncache_testbed()
        module = testbed.ncache
        key = FhoKey(1, 1, 0)
        module.store.insert(Chunk.from_payload(
            key, VirtualPayload(5, 0, BLOCK_SIZE), 1448, dirty=True))
        keyed = KeyedPayload(BLOCK_SIZE, fho_key=key)
        stamped = module.lbn_annotator(keyed, 4242)
        assert stamped.lbn_key == LbnKey(0, 4242)
        assert stamped.fho_key == key

    def test_annotator_refuses_a_block_whose_chunk_is_gone(self):
        """A written block stands for its FHO chunk, even when an LBN
        chunk for the block is cached: once the FHO chunk is gone its
        bytes were written back, and the LBN chunk may be older.  A
        fill's block goes in as it came, less the pins it carries: its
        chunk is the fill's to hold, and the fill's to release."""
        testbed = ncache_testbed()
        module = testbed.ncache
        chunk = Chunk.from_payload(
            LbnKey(0, 4242), VirtualPayload(5, 0, BLOCK_SIZE), 1448)
        module.store.insert(chunk)
        written = KeyedPayload(BLOCK_SIZE, fho_key=FhoKey(1, 1, 0))
        assert module.lbn_annotator(written, 4242) is None
        filled = KeyedPayload(BLOCK_SIZE, lbn_key=LbnKey(0, 4242))
        assert module.lbn_annotator(filled, 4242) is filled
        stored = module.lbn_annotator(filled.holding((chunk,)), 4242)
        assert stored.pinned == () and stored.lbn_key == LbnKey(0, 4242)

    def test_annotator_ignores_plain_payloads(self):
        testbed = ncache_testbed()
        plain = BytesPayload(b"x" * BLOCK_SIZE)
        assert testbed.ncache.lbn_annotator(plain, 1) is plain


class TestReclaimCoherence:
    def test_reclaimed_chunk_invalidates_dangling_fs_page(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")

        def scenario():
            yield from testbed.clients[0].read(fh, 0, BLOCK_SIZE)

        run_scenario(testbed, scenario())
        store = testbed.ncache.store
        lbn = inode.block_lbn(0)
        assert testbed.cache.peek(lbn) is not None
        chunk = store.peek_lbn(LbnKey(0, lbn))
        store.drop(chunk)  # simulate pressure-reclaim of this chunk
        assert testbed.cache.peek(lbn) is None
        assert testbed.server_host.counters[
            "ncache.fs_page_invalidated"].value == 1


class TestDepartingKeysResolve:
    """The two windows in which a key used to dangle by the time its
    reply or flush reached the TX hook, each opened on purpose."""

    @staticmethod
    def evict_before_the_page_goes_in(testbed):
        """The next ``_evict_for`` — which a fill and a WRITE run after
        the RX hook cached their chunks, before the page insert — first
        evicts every chunk it can, writing a dirty victim back.  Returns
        the list the chunks still cached then are put in."""
        vfs, module = testbed.vfs, testbed.ncache
        store, inner = module.store, vfs._evict_for
        left = []

        def evict_for(nblocks):
            vfs._evict_for = inner  # once
            try:
                for victim in store.make_room(store.capacity_bytes):
                    yield from module.write_back_chunk(victim)
            except CacheStallError:  # only pinned chunks are left
                pass
            left.extend(store.chunks())
            yield from inner(nblocks)
        vfs._evict_for = evict_for
        return left

    @pytest.mark.parametrize("op", ["fill", "write"])
    def test_chunk_evicted_before_its_page_is_inserted(self, op):
        """A fill's chunks are pinned from the RX hook until its reply
        holds them: the eviction leaves them, the pages go in, and the
        read takes one trip to the target.  A WRITE's chunks are not:
        once evicted (and so written back) the WRITE stores no page, and
        a read and a flush after it see the written bytes."""
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        client = testbed.clients[0]
        data = VirtualPayload(61, 0, 2 * BLOCK_SIZE)
        expected = data.materialize() if op == "write" else \
            testbed.image.file_payload(inode, 0, 2 * BLOCK_SIZE).materialize()
        left = self.evict_before_the_page_goes_in(testbed)

        def scenario():
            if op == "write":
                yield from client.write(fh, 0, data)
            dgram = yield from client.read(fh, 0, 2 * BLOCK_SIZE)
            yield from testbed.vfs.flush_oldest(64)
            return dgram

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == expected
        on_disk = b"".join(
            testbed.disk_store.read_block(inode.block_lbn(b)).materialize()
            for b in range(2))
        assert on_disk == expected
        if op == "fill":
            assert sorted(chunk.key for chunk in left) == [
                LbnKey(0, inode.block_lbn(b)) for b in range(2)]
            assert testbed.target.reads_served == 1
            assert not any(chunk.pinned
                           for chunk in testbed.ncache.store.chunks())

    def test_store_emptied_between_read_and_substitution(self):
        testbed = ncache_testbed()
        fh = testbed.file_handle("file")
        inode = testbed.image.lookup("file")
        store, vfs = testbed.ncache.store, testbed.vfs
        inner = vfs.read

        def read_then_cold_restart(inode, offset, length):
            payload = yield from inner(inode, offset, length)
            store.cold_restart()
            return payload
        vfs.read = read_then_cold_restart

        def scenario():
            yield from testbed.clients[0].read(fh, 0, 8 * BLOCK_SIZE)
            return (yield from testbed.clients[0].read(fh, 0, 8 * BLOCK_SIZE))

        dgram = run_scenario(testbed, scenario())
        assert read_reply_data(dgram).materialize() == \
            testbed.image.file_payload(inode, 0, 8 * BLOCK_SIZE).materialize()
        assert store.n_chunks == 8  # what the second reply had pinned
        assert not any(chunk.pinned for chunk in store.chunks())
