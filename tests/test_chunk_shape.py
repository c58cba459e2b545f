"""A chunk is a payload and a segment shape (DESIGN.md §8, §11).

The RX hook caches an arrived block as one slice of the reassembled
message plus an interned :class:`~repro.net.buffer.SegmentShape` worked
out from the train's buffer sizes; no per-chunk ``NetBuffer`` is built.
These tests pin that description to the buffer-by-buffer reference the
cache used to *store* (``chunk_reference.split_into_chunks``):

* a seeded property test over header offset, message length, chunk and
  fragment size, uniform and substituted (non-uniform) trains, short
  last fragments and final chunks, both flavors and mixed checksum
  state — the carved chunk's buffers, length, footprint and bytes equal
  the reference's, and equal geometries share one shape object;
* three quick system runs (all-miss reads with eviction, a read/write
  mix with FHO writes and remap, a two-node cooperative fetch) whose
  event counts, cache bytes and software-checksum counters were recorded
  at the commit that still stored buffer lists, and after which no
  resident chunk has grown one unless an observer looked;
* a count of the objects a resident arrival chunk costs, and a bound
  on the bytes a bulk-loaded chunk or page costs.
"""

from __future__ import annotations

import gc
import tracemalloc
import types
from functools import partial

import pytest

from repro.check import sanitizer as _sanitizer
from repro.core import Chunk, NCacheStore, carve_chunks
from repro.core.ncache import NCacheModule
from repro.experiments.common import scaled_memory_config
from repro.fleet import ClusterSpec
from repro.fs import BLOCK_SIZE, BufferCache
from repro.iscsi.pdu import DataIn
from repro.net import Endpoint, Host
from repro.net.buffer import (BufferChain, BufferFlavor, BytesPayload,
                              ExtentPayload, JunkPayload, NetBuffer,
                              SegmentShape, chain_from_payload, concat)
from repro.net.network import Datagram
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim import Simulator
from repro.sim.engine import dispatch_count
from repro.sim.process import start
from repro.sim.rng import substream
from repro.workloads import SequentialReadWorkload, SpecSfsWorkload

from chunk_reference import merge_payload, split_into_chunks
from conftest import drive

MB = 1 << 20
HEADERS = (0, 1, 48, 132, 1448, 1600)
FRAGMENTS = (512, 1448, 1480, 4096, 5000)
CHUNK_SIZES = (1024, 4096)


# ---------------------------------------------------------------------------
# carve == the buffer-by-buffer reference
# ---------------------------------------------------------------------------

def _train_spec(rng):
    """One arrival: geometry only, so two datagrams can share it."""
    header = rng.choice(HEADERS)
    chunk_size = rng.choice(CHUNK_SIZES)
    blocks = rng.randint(1, 5)
    total = blocks * chunk_size
    if rng.random() < 0.4:  # short final chunk
        total -= rng.randrange(1, chunk_size)
    trailer = rng.choice((0, 0, 7))
    if rng.random() < 0.5:
        # What the transport cuts (the last fragment is the remainder).
        frag = rng.choice(FRAGMENTS)
        sizes = [min(frag, header + total + trailer - offset)
                 for offset in range(0, header + total + trailer, frag)]
    else:
        # What a peer's substituted train looks like: no common size.
        sizes, left = [], header + total + trailer
        while left:
            sizes.append(min(left, rng.choice((1, 36, 600, 1200, 1448,
                                               1484, 2048))))
            left -= sizes[-1]
    knowns = [rng.random() < 0.7 for _ in sizes]
    return dict(header=header, chunk_size=chunk_size, total=total,
                trailer=trailer, sizes=sizes, knowns=knowns,
                flavor=rng.choice(list(BufferFlavor)))


def _train(spec, tag):
    """The spec's train carrying data ``tag``: header bytes, data, trailer."""
    message = concat([BytesPayload(bytes(i % 251 for i in
                                         range(spec["header"]))),
                      ExtentPayload(tag, 4096, spec["total"]),
                      BytesPayload(b"t" * spec["trailer"])])
    buffers, offset = [], 0
    for size, known in zip(spec["sizes"], spec["knowns"]):
        buffers.append(NetBuffer(payload=message.slice(offset, size),
                                 flavor=spec["flavor"], csum_known=known))
        offset += size
    return BufferChain(buffers)


def _describe(buffers):
    return [(b.payload_bytes, b.csum_known, b.flavor,
             b.payload.materialize()) for b in buffers]


def _assert_carve_is_reference(chain, header, total, chunk_size, context):
    reference = split_into_chunks(chain, header, total, chunk_size)
    carved = carve_chunks(chain, header, total, chunk_size)
    assert len(carved) == len(reference), context
    for n, ((payload, shape), ref) in enumerate(zip(carved, reference)):
        chunk = Chunk(n, payload, shape)
        nbytes = sum(b.payload_bytes for b in ref)
        assert chunk.length == nbytes, context
        assert chunk.footprint(160, 64) == nbytes + 160 * len(ref) + 64, \
            context
        assert chunk.segment_buffer([]).n_segments == len(ref), context
        assert chunk.payload().materialize() == \
            merge_payload(ref).materialize(), context
        assert chunk.peek_buffers() is None, context
        assert _describe(chunk.buffers) == _describe(ref), context
    return [shape for _, shape in carved]


@pytest.mark.parametrize("seed", range(48))
def test_carved_chunks_are_the_reference_buffer_lists(seed):
    rng = substream(seed, "chunk-shape")
    for _ in range(6):
        spec = _train_spec(rng)
        header, total, chunk_size = (spec["header"], spec["total"],
                                     spec["chunk_size"])
        shapes = _assert_carve_is_reference(
            _train(spec, 0xA), header, total, chunk_size, spec)
        # Another datagram of the same geometry: the same shape objects.
        again = _assert_carve_is_reference(
            _train(spec, 0xB), header, total, chunk_size, spec)
        assert all(a is b for a, b in zip(shapes, again)), spec
        for shape in shapes:
            assert SegmentShape.of(shape.segments, shape.flavor) is shape
        # The same train declared shorter (what a message's length field
        # decides, not its buffers): fewer or shorter chunks.
        shorter = total - rng.randrange(1, min(total, chunk_size + 1))
        if shorter:
            _assert_carve_is_reference(
                _train(spec, 0xC), header, shorter, chunk_size,
                (spec, shorter))


def test_uniform_shape_is_what_the_transport_cuts():
    for length, frag in ((4096, 1448), (4096, 4096), (4096, 5000),
                         (1000, 512), (1, 1448)):
        chain = chain_from_payload(ExtentPayload(1, 0, length), frag)
        shape = SegmentShape.uniform(length, frag, True, BufferFlavor.MBUF)
        assert [n for n, _ in shape.segments] == \
            [b.payload_bytes for b in chain]
        assert all(known for _, known in shape.segments)
        assert shape.length == length
        assert shape is SegmentShape.uniform(length, frag, True,
                                             BufferFlavor.MBUF)
        assert shape is not SegmentShape.uniform(length, frag, False,
                                                 BufferFlavor.MBUF)
        assert shape is not SegmentShape.uniform(length, frag, True,
                                                 BufferFlavor.SK_BUFF)


def test_malformed_geometry_is_rejected():
    chain = chain_from_payload(ExtentPayload(1, 0, 1000), 1448)
    with pytest.raises(ValueError):
        carve_chunks(chain, 0, 2000, 4096)  # shorter than declared
    with pytest.raises(ValueError):
        carve_chunks(BufferChain(), -1, 0, 4096)
    assert carve_chunks(chain, 0, 0, 4096) == []
    with pytest.raises(ValueError):
        SegmentShape.of((), BufferFlavor.SK_BUFF)
    with pytest.raises(ValueError):
        SegmentShape.of(((0, True),), BufferFlavor.SK_BUFF)
    with pytest.raises(ValueError):
        SegmentShape.uniform(4096, 0, True, BufferFlavor.SK_BUFF)
    with pytest.raises(ValueError):  # shape and payload disagree
        Chunk(0, ExtentPayload(1, 0, 4096),
              SegmentShape.uniform(4000, 1448, True, BufferFlavor.SK_BUFF))
    with pytest.raises(ValueError):
        Chunk.from_payload(0, BytesPayload(b""), 1448)


# ---------------------------------------------------------------------------
# system level: nothing moved, and nobody built a buffer list
# ---------------------------------------------------------------------------
#
# Expected values recorded at the parent commit (chunks stored as buffer
# lists) by running these same scenarios from a scratch probe; the
# offload-free sfs_mixed server checksums re-recorded when eviction
# became write-back-first (one reply fewer computed, one more inherited).

def _used_bytes(testbed):
    return testbed.server_host.counters.registry.gauge(
        "ncache.used.bytes", unit="bytes").value


def _checksums(host):
    return tuple(int(host.counters[f"checksum.{name}"].value)
                 for name in ("computed", "bytes", "inherited"))


def _allmiss(checksum_offload):
    """Sequential 32 KB reads over a cache small enough to evict."""
    testbed = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                              n_server_nics=1, n_daemons=16,
                              checksum_offload=checksum_offload,
                              **scaled_memory_config(256)).build()
    load = SequentialReadWorkload(testbed, 32768, file_size=4 * MB,
                                  streams_per_client=2)
    testbed.setup()
    load.start()
    testbed.sim.run(until=testbed.sim.now + 0.4)
    return [testbed]


def _sfs_mixed(checksum_offload):
    """Cold read/write mix: Data-In fills, FHO writes, flush-time remap."""
    testbed = TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=0.02,
                              n_server_nics=1, n_daemons=16,
                              checksum_offload=checksum_offload,
                              **scaled_memory_config(128)).build()
    testbed.flush_daemon.max_blocks_per_pass = 16
    load = SpecSfsWorkload(testbed, pct_regular=0.75, read_write_ratio=1.0,
                           fs_size_bytes=64 * MB, outstanding_per_client=4,
                           seed=3)
    testbed.setup()
    load.start()
    testbed.sim.run(until=testbed.sim.now + 0.25)
    return [testbed]


def _fleet_fetch(checksum_offload):
    """Node 0 fills from the backend (arrival-shaped chunks); node 1 then
    fetches the same blocks from it and re-chunks the peer's train."""
    fleet = ClusterSpec(
        testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                checksum_offload=checksum_offload,
                                **scaled_memory_config(16)),
        n_servers=2, replication=2, cooperative=True,
        group_blocks=8).build()
    fleet.create_file("f", 24 * BLOCK_SIZE)
    fleet.setup()
    first, second = (node.testbed for node in fleet.nodes)

    def reads(reader, spans):
        fh = reader.file_handle("f")
        for first_block, n in spans:
            yield from reader.clients[0].read(
                fh, first_block * BLOCK_SIZE, n * BLOCK_SIZE)

    run_until_complete(fleet.sim, start(fleet.sim, reads(
        first, ((0, 8), (8, 8), (16, 8)))))
    run_until_complete(fleet.sim, start(fleet.sim, reads(
        second, ((0, 8), (8, 4), (12, 1), (13, 8), (21, 3)))))
    assert fleet.counter_sum("fleet.peer_hit") == 5
    assert fleet.backend_reads() == 3
    return [first, second]


#: scenario -> offload -> (sim events, per-node ncache.used.bytes,
#: per-node server (computed, bytes, inherited), per-node client ditto).
RECORDED = {
    _allmiss: {
        True: (16912, [3013120], [(0, 0, 0)], [(0, 0, 0)]),
        False: (17965, [3013120], [(11086, 12356896, 4155)],
                [(4218, 4484960, 0)])},
    _sfs_mixed: {
        True: (4283, [969440], [(0, 0, 0)], [(0, 0, 0)]),
        False: (5746, [1101440], [(1223, 1229690, 345)],
                [(414, 508004, 0)])},
    _fleet_fetch: {
        True: (401, [114240, 114240], [(0, 0, 0)] * 2, [(0, 0, 0)] * 2),
        False: (477, [114240, 114240],
                [(137, 141768, 129), (111, 105888, 85)],
                [(93, 98928, 0), (95, 99344, 0)])},
}


@pytest.mark.parametrize("checksum_offload", (True, False))
@pytest.mark.parametrize("scenario", list(RECORDED),
                         ids=lambda fn: fn.__name__.lstrip("_"))
def test_system_runs_match_the_buffer_list_tree(
        scenario, checksum_offload, _buffer_sanitizer):
    assert _sanitizer.active() is _buffer_sanitizer  # armed throughout
    before = dispatch_count()
    testbeds = scenario(checksum_offload)
    events, used, server, client = RECORDED[scenario][checksum_offload]
    assert dispatch_count() - before == events
    assert [_used_bytes(t) for t in testbeds] == used
    assert [_checksums(t.server_host) for t in testbeds] == server
    assert [_checksums(t.clients[0].host) for t in testbeds] == client
    chunks = [c for t in testbeds for c in t.ncache.store.chunks()]
    assert len(chunks) > 40
    if checksum_offload:
        # Whole-block replies, flush-time remaps, evictions, peer
        # fetches and the sanitizer's own hooks: none is an observer
        # of individual buffers (DESIGN.md §11).
        assert all(c.peek_buffers() is None for c in chunks)
    else:
        # A software-checksum sender is one: what it served, it built.
        assert any(c.peek_buffers() is not None for c in chunks)
    assert not _buffer_sanitizer.violations


def test_sfs_run_exercises_writes_and_remap():
    """The mixed scenario would pin nothing about FHO chunks if its
    window held no write or remap: check that it does."""
    testbed, = _sfs_mixed(True)
    counters = testbed.server_host.counters
    assert counters["ncache.cached_data_in"].value > 50
    assert counters["ncache.cached_write"].value > 50
    assert counters["ncache.remap"].value > 5


# ---------------------------------------------------------------------------
# what a resident arrival chunk costs
# ---------------------------------------------------------------------------

def _tracked_objects_behind(root):
    """GC-tracked objects reachable from ``root``, code and types aside."""
    # Untracks the tuples of atoms a shape is made of: one nesting level
    # per pass, so how many are left after one pass would depend on when
    # the allocator last triggered a collection.
    for _ in range(3):
        gc.collect()
    seen = {id(root)}
    stack = [root]
    count = 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, (type, types.ModuleType, types.FunctionType,
                            types.BuiltinFunctionType, types.MethodType)):
            continue
        count += gc.is_tracked(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return count


def test_an_arrival_chunk_is_two_objects():
    """1,000 blocks through the RX hook: each resident one is a
    ``Chunk`` and one payload view — its key is an untracked int LBN,
    and there is no buffer, no buffer payload, no list, no kernel
    handle, no ``(key, nbytes)`` record (the recency list maps the
    chunk to an untracked int).  Stored as a buffer list
    it was about fifteen.  Counted without a sanitizer: its per-chunk
    records are not the cache's."""
    _sanitizer.disable()  # the conftest fixture restores it
    sim = Simulator()
    host = Host(sim, "server")
    store = NCacheStore(64 * MB, counters=host.counters, trace=sim.trace)
    module = NCacheModule(host, store)
    header = BytesPayload(b"b" * DataIn.header_size)

    def data_in(n):
        train = chain_from_payload(
            concat([header, ExtentPayload(0xD, n * 8 * BLOCK_SIZE,
                                          8 * BLOCK_SIZE).physical_copy()]),
            1448)
        for buf in train:
            buf.csum_known = True
        return Datagram(protocol="tcp", src=Endpoint("storage-0", 3260),
                        dst=Endpoint("server-0", 40000),
                        message=DataIn(task_tag=n, lun=0, lba=8 * n,
                                       nblocks=8),
                        chain=train, n_frames=len(train), wire_bytes=0)

    drive(sim, module.rx_hook(data_in(0)))
    before = _tracked_objects_behind(store)
    for n in range(1, 126):
        drive(sim, module.rx_hook(data_in(n)))
    assert store.n_chunks == 1008
    assert all(c.peek_buffers() is None for c in store.chunks())
    assert _tracked_objects_behind(store) - before == 2 * 1000


#: Blocks per bulk load: just past a dict resize, as a churned cache is.
BULK_BLOCKS = 6000


def _traced_bytes_per_block(load, blocks=BULK_BLOCKS):
    """Bytes ``load()`` leaves allocated, per block (tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        held = load()
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del held
    return allocated / blocks


def test_a_bulk_loaded_block_is_its_index_and_recency_slots():
    """What a warm-started block costs.  Each cache holds a block as its
    index slot plus one recency-list slot mapping it to its size, and
    nothing else; a chunk's key is its LBN, an int.  That measures
    400 B per chunk and 225 B per page here (Python 3.11).  A
    ``(lun, lbn)`` tuple key measured 463 B per chunk, and a
    ``(key, nbytes)`` record in the recency slot 519 B and 280 B.  The
    bounds sit about 9 % above the measurements, room for the
    object-size drift of 3.10-3.12."""
    _sanitizer.disable()  # its per-chunk records are not the cache's
    shape = SegmentShape.uniform(BLOCK_SIZE, 1448, True,
                                 BufferFlavor.SK_BUFF)
    footprint = Chunk(0, ExtentPayload(7, 0, BLOCK_SIZE),
                      shape).footprint(160, 64)

    def load_store():
        store = NCacheStore(BULK_BLOCKS * footprint)
        store.bulk_load((Chunk(i, ExtentPayload(
            7, i * BLOCK_SIZE, BLOCK_SIZE), shape)
            for i in range(BULK_BLOCKS)), footprint)
        assert store.n_chunks == BULK_BLOCKS
        return store

    pages = [(lbn, JunkPayload(BLOCK_SIZE)) for lbn in range(BULK_BLOCKS)]

    def load_cache():
        cache = BufferCache(BULK_BLOCKS * BLOCK_SIZE)
        cache.bulk_load(iter(pages))
        assert len(cache) == BULK_BLOCKS
        return cache

    assert _traced_bytes_per_block(load_store) < 436
    assert _traced_bytes_per_block(load_cache) < 260


#: Blocks per warm-run load: a warm set of web size.
RUN_BLOCKS = 120_000


def test_an_untouched_warm_block_is_no_object():
    """What a warm-started block costs until something touches it: its
    slot in the run's LBN array (four bytes) and its file run's share of
    the run's per-file arrays, here 16-block files (about the mean of
    ``web_zipf``'s warm set).  Touched, each is a built chunk and stays
    within the bulk-loaded block's bound."""
    _sanitizer.disable()  # its per-chunk records are not the cache's
    shape = SegmentShape.uniform(BLOCK_SIZE, 1448, True,
                                 BufferFlavor.SK_BUFF)
    footprint = Chunk(0, ExtentPayload(7, 0, BLOCK_SIZE),
                      shape).footprint(160, 64)
    files = [(lbn, 16, 7 + lbn, lbn) for lbn in range(0, RUN_BLOCKS, 16)]

    def load(touch):
        store = NCacheStore(RUN_BLOCKS * footprint)
        store.load_run(files, shape, footprint)
        for lbn in range(RUN_BLOCKS) if touch else ():
            assert store.lookup_lbn(lbn) is not None
        assert store.n_chunks == RUN_BLOCKS
        return store

    assert _traced_bytes_per_block(partial(load, False), RUN_BLOCKS) <= 8
    assert _traced_bytes_per_block(partial(load, True), RUN_BLOCKS) < 436
