"""Segment-lazy substitution: one descriptor per chunk (DESIGN.md §11).

A chunk substituted whole leaves the NCache as one ``NetBuffer`` with a
``segs`` layout — its segment shape, uniform if it was warm-started,
the arrived train's if it was carved out of one; packets, frames, wire
bytes and the substitute CPU charge are arithmetic.  These tests pin
that the arithmetic and the one expansion function reproduce the eager
(buffer-list) path exactly:

* a seeded property test comparing the lazy chain, expanded, with the
  chain the same reply gets on a host that must look at every buffer;
* a warm-started web run after which every resident chunk is still
  compact and every reply verifies;
* a warm-started cooperative fleet and a no-offload web run whose event
  counts, footprints and checksum counters were recorded at the commit
  before the lazy path existed.
"""

from __future__ import annotations

import pytest

from repro.core import Chunk, KeyedPayload, NCacheStore, carve_chunks
from repro.core.ncache import NCacheModule
from repro.copymodel.costs import DEFAULT_COSTS
from repro.experiments.common import scaled_memory_config, warm_caches
from repro.fleet import ClusterSpec
from repro.fs import BLOCK_SIZE
from repro.http.client import response_body
from repro.net import Endpoint, Host, Network
from repro.net.buffer import (BufferChain, BufferFlavor, BytesPayload,
                              ExtentPayload, NetBuffer, SegmentShape,
                              chain_from_payload, concat, expand_segments)
from repro.net.network import Datagram
from repro.nfs.protocol import NfsProc, NfsReply
from repro.servers import ServerMode, TestbedSpec
from repro.servers.testbed import run_until_complete
from repro.sim import Simulator
from repro.sim.engine import SimulationError, dispatch_count
from repro.sim.process import start
from repro.sim.rng import substream

from conftest import drive

CHUNK = 4096
HEADER_LENGTHS = (0, 1, 36, 132, 1448, 1600)
FRAGMENTS = (1448, 1480, 2048, CHUNK, 5000)


def _reply_spec(rng):
    """One reply: header length, protocol, and per placeholder what
    shape of chunk backs it (``warm``: uniform; ``arrived``: carved from
    a train behind ``arrival_header`` bytes, so its first segment is
    short and its edges carry no checksum) and which byte range it asks
    for."""
    leaves = []
    for n in range(rng.randint(1, 5)):
        kind = rng.choice(("warm", "warm", "arrived", "missing"))
        whole = rng.random() < 0.7
        offset = 0 if whole else rng.randrange(0, CHUNK - 1)
        length = CHUNK if whole else rng.randint(1, CHUNK - offset - 1)
        leaves.append(dict(
            lbn=100 + n, kind=kind, offset=offset, length=length,
            frag=rng.choice(FRAGMENTS),
            arrival_header=rng.choice((1, 48, 132, 1447)),
            flavor=rng.choice(list(BufferFlavor)),
            known=rng.random() < 0.7))
    return dict(header=rng.choice(HEADER_LENGTHS),
                protocol=rng.choice(("udp", "tcp")),
                trailer=rng.choice((0, 0, 9)), leaves=leaves)


def _substitute(spec, checksum_offload):
    """Build the spec's world on a fresh host and run the TX hook.

    ``checksum_offload=False`` makes the host an observer of individual
    buffers, which is what selects the eager path — no switch exists.
    """
    sim = Simulator()
    host = Host(sim, "server", checksum_offload=checksum_offload)
    store = NCacheStore(1 << 20, counters=host.counters, trace=sim.trace)
    module = NCacheModule(host, store)
    parts = []
    if spec["header"]:
        parts.append(BytesPayload(bytes(i % 251 for i in
                                        range(spec["header"]))))
    chunks = []
    for leaf in spec["leaves"]:
        key = leaf["lbn"]
        data = ExtentPayload(0xC0FFEE, leaf["lbn"] * CHUNK, CHUNK)
        if leaf["kind"] == "warm":
            chunk = Chunk.from_payload(key, data, leaf["frag"],
                                       flavor=leaf["flavor"],
                                       csum_known=leaf["known"])
        elif leaf["kind"] == "arrived":
            chunk = _arrived_chunk(key, data, leaf)
        if leaf["kind"] != "missing":
            store.make_room(chunk.footprint(store.per_buffer_overhead,
                                            store.per_chunk_overhead))
            store.insert(chunk)
            chunks.append((leaf, chunk))
        parts.append(KeyedPayload(leaf["length"], lbn_key=key,
                                  base_offset=leaf["offset"]))
    if spec["trailer"]:
        parts.append(BytesPayload(b"t" * spec["trailer"]))
    dgram = Datagram(
        protocol=spec["protocol"], src=Endpoint("server-0", 2049),
        dst=Endpoint("client-0", 900),
        message=NfsReply(xid=1, proc=NfsProc.READ),
        chain=BufferChain([NetBuffer(payload=concat(parts))]),
        n_frames=1, wire_bytes=0)
    drive(sim, module.tx_hook(dgram))
    return dgram, sim.now, host.counters, chunks


def _arrived_chunk(key, data, leaf):
    """``data`` as the RX hook caches it off the wire: fragments of
    ``leaf["frag"]`` cut from header + data, carved behind the header."""
    header = BytesPayload(b"a" * leaf["arrival_header"])
    train = chain_from_payload(concat([header, data]), leaf["frag"],
                               flavor=leaf["flavor"])
    for buf in train:
        buf.csum_known = leaf["known"]
    (payload, shape), = carve_chunks(train, header.length, CHUNK, CHUNK)
    if leaf["frag"] < CHUNK:
        assert shape.segments[0][0] < leaf["frag"]
    return Chunk(key, payload, shape)


def _describe(buffers):
    return [(b.payload.length, b.csum_known, b.flavor, b.segs,
             b.payload.materialize()) for b in buffers]


def _framing_bytes(dgram):
    """Header bytes the wire adds to ``dgram``'s payload, per protocol."""
    costs = DEFAULT_COSTS
    if dgram.protocol == "udp":
        return costs.udp_header + dgram.n_frames * (
            costs.ip_header + costs.ethernet_overhead)
    return dgram.n_frames * (
        costs.tcp_header + costs.ip_header + costs.ethernet_overhead)


@pytest.mark.parametrize("seed", range(40))
def test_lazy_chain_expands_to_the_eager_chain(seed):
    rng = substream(seed, "segment-lazy")
    for _ in range(8):
        spec = _reply_spec(rng)
        if any(leaf["kind"] == "missing" for leaf in spec["leaves"]):
            # A key with no chunk behind it is a bug on either path.
            for offload in (True, False):
                with pytest.raises(SimulationError, match="dangling key"):
                    _substitute(spec, offload)
            continue
        lazy, lazy_ns, lazy_counters, lazy_chunks = _substitute(spec, True)
        eager, eager_ns, eager_counters, _ = _substitute(spec, False)
        assert all(b.segs is None for b in eager.chain), spec
        assert _describe(expand_segments(lazy.chain.buffers)) == \
            _describe(eager.chain.buffers), spec
        assert lazy.n_frames == eager.n_frames == \
            max(1, len(eager.chain.buffers)), spec
        assert lazy.wire_bytes == eager.wire_bytes, spec
        # Substitution preserves length leaf by leaf — whole chunk or
        # partial range — so framing is computed from the byte count of
        # the chain that went *in*; the chain that comes out agrees.
        sent = spec["header"] + spec["trailer"] + sum(
            leaf["length"] for leaf in spec["leaves"])
        for dgram in (lazy, eager):
            assert sum(b.payload_bytes for b in
                       expand_segments(dgram.chain.buffers)) == sent, spec
            assert dgram.wire_bytes - _framing_bytes(dgram) == sent, spec
        assert lazy_ns == eager_ns, spec
        assert lazy_counters["ncache.substituted_packets"].value == \
            eager_counters["ncache.substituted_packets"].value, spec
        # The point of it: a chunk served whole never grows a buffer list.
        for leaf, chunk in lazy_chunks:
            if leaf["length"] == CHUNK:
                assert chunk.peek_buffers() is None, spec


@pytest.mark.parametrize("frag", FRAGMENTS)
def test_built_buffer_list_is_the_fragmented_payload(frag):
    """``Chunk.buffers`` expands the chunk's own descriptor, so the
    property test's eager side shares ``expand_segments`` with its lazy
    side; this pins both to the transport's independent splitter."""
    data = ExtentPayload(0xC0FFEE, 3 * CHUNK, CHUNK)
    chunk = Chunk.from_payload(3, data, frag,
                               flavor=BufferFlavor.MBUF, csum_known=True)
    reference = chain_from_payload(data, frag, flavor=BufferFlavor.MBUF)
    for buf in reference:
        buf.csum_known = True
    assert _describe(chunk.buffers) == _describe(reference.buffers)
    assert chunk.buffers is chunk.buffers  # built once, then kept


def test_whole_compact_chunk_is_one_descriptor():
    """The property test above would pass vacuously if nothing were
    lazy: pin the descriptor's shape once."""
    spec = dict(header=36, protocol="udp", trailer=0, leaves=[
        dict(lbn=1, kind="warm", offset=0, length=CHUNK, frag=1448,
             flavor=BufferFlavor.SK_BUFF, known=True)])
    lazy, _ns, counters, _chunks = _substitute(spec, True)
    assert [b.segs for b in lazy.chain] == [
        (36, SegmentShape.uniform(CHUNK, 1448, True, BufferFlavor.SK_BUFF))]
    assert lazy.n_frames == 3
    assert counters["ncache.substituted_packets"].value == 3


def test_software_checksum_receiver_counts_every_segment():
    """A receiver without offload verifies buffer by buffer: it must be
    handed the train, not the descriptor (``checksum.computed`` counts
    buffers as seen)."""
    sim = Simulator()
    network = Network(sim)
    client = Host(sim, "client", checksum_offload=False)
    client.add_nic(network, "client-0")
    got = []

    def handler(dgram):
        got.append(dgram)

    client.stack.udp_bind(900, handler)
    chunk = Chunk.from_payload(1, ExtentPayload(7, 0, CHUNK), 1448)
    dgram = Datagram(
        protocol="udp", src=Endpoint("server-0", 2049),
        dst=Endpoint("client-0", 900), message=None,
        chain=BufferChain([chunk.segment_buffer([BytesPayload(b"h" * 36)])]),
        n_frames=3, wire_bytes=CHUNK + 36)
    client.stack.receive(client.nics[0], dgram)
    sim.run()
    assert [b.payload.length for b in got[0].chain] == [36 + 1448, 1448, 1200]
    assert client.counters["checksum.computed"].value == 3
    assert client.counters["checksum.bytes"].value == CHUNK + 36


class TestWarmStartedRuns:
    def _web(self, **overrides):
        testbed = TestbedSpec.web(ServerMode.NCACHE,
                                  **scaled_memory_config(8),
                                  **overrides).build()
        paths = []
        for i in range(6):
            path = f"w/{i:03d}"
            testbed.image.create_file(path, 20_000 + 7_000 * i)
            paths.append(path)
        testbed.setup()
        warm_caches(testbed, paths)
        return testbed, paths

    def _get_all(self, testbed, paths):
        def scenario():
            bodies = []
            for path in paths + paths[:2]:
                response, dgram = \
                    yield from testbed.http_clients[0].get(path)
                assert response.ok
                bodies.append((path, response_body(dgram)))
            return bodies

        proc = start(testbed.sim, scenario())
        run_until_complete(testbed.sim, proc)
        return proc.value

    def test_served_chunks_stay_compact_and_replies_verify(
            self, _buffer_sanitizer):
        testbed, paths = self._web()
        store = testbed.ncache.store
        # Not even the sanitizer's insert hook may build a buffer list.
        assert _buffer_sanitizer is not None
        assert all(c.peek_buffers() is None for c in store.chunks())
        for path, body in self._get_all(testbed, paths):
            inode = testbed.image.lookup(path)
            assert body == testbed.image.file_payload(
                inode, 0, inode.size).materialize(), path
        counters = testbed.server_host.counters
        assert counters["ncache.substituted_replies"].value == 8
        # Counted for every reply (tracing is off here),
        # from the segment arithmetic: whole blocks are 3 MSS segments,
        # a file's short tail block is a partial leaf of 1..3 buffers.
        whole_blocks = sum(testbed.image.lookup(p).size // BLOCK_SIZE
                           for p in paths + paths[:2])
        packets = counters["ncache.substituted_packets"].value
        assert 3 * whole_blocks < packets <= 3 * (whole_blocks + 8)
        # Only the partial tail blocks needed per-buffer structure.
        built = [c for c in store.chunks() if c.peek_buffers() is not None]
        assert len(built) <= len(paths)
        assert store.n_chunks > 3 * len(built)

    def test_no_offload_counters_match_the_eager_tree(self):
        """Values recorded at the parent commit (every substituted buffer
        built): the software-checksum sender and receiver are observers,
        so nothing they count may move."""
        before = dispatch_count()
        testbed, paths = self._web(checksum_offload=False)
        self._get_all(testbed, paths)
        assert dispatch_count() - before == 341
        server = testbed.server_host.counters
        client = testbed.http_clients[0].host.counters
        assert (server["checksum.computed"].value,
                server["checksum.bytes"].value,
                server["checksum.inherited"].value) == (28, 22264, 187)
        assert (client["checksum.computed"].value,
                client["checksum.bytes"].value,
                client["checksum.inherited"].value) == (211, 273472, 0)

    def test_cooperative_peer_rechunks_the_expanded_train(self):
        """Node 0 is warm-started (compact chunks) and serves node 1's
        misses as peer replies; node 1's RX hook re-chunks what arrives,
        so its footprints depend on the per-segment expansion.  Event
        count and per-node bytes recorded at the parent commit."""
        before = dispatch_count()
        fleet = ClusterSpec(
            testbed=TestbedSpec.nfs(ServerMode.NCACHE, flush_interval_s=None,
                                    **scaled_memory_config(16)),
            n_servers=2, replication=2, cooperative=True,
            group_blocks=8).build()
        fleet.create_file("f", 24 * BLOCK_SIZE)
        fleet.setup()
        warm_caches(fleet.nodes[0].testbed, ["f"])
        reader = fleet.nodes[1].testbed

        def reads():
            fh = reader.file_handle("f")
            for first, n in ((0, 8), (8, 4), (12, 1), (13, 8), (21, 3)):
                yield from reader.clients[0].read(
                    fh, first * BLOCK_SIZE, n * BLOCK_SIZE)

        run_until_complete(fleet.sim, start(fleet.sim, reads()))
        assert dispatch_count() - before == 203
        assert fleet.counter_sum("fleet.peer_hit") == 5
        assert fleet.backend_reads() == 0
        for node in fleet.nodes:
            registry = node.testbed.server_host.counters.registry
            assert registry.gauge("ncache.used.bytes",
                                  unit="bytes").value == 111360
        served, cached = (n.testbed.ncache.store for n in fleet.nodes)
        assert all(c.peek_buffers() is None for c in served.chunks())
        assert all(len(c.buffers) == 3 for c in cached.chunks())
