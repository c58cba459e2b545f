"""The NCache module: on-the-fly packet caching and substitution.

This is the paper's loadable kernel module, inserted "into the layer
between the network stack and the Ethernet device driver" (§4.1) — here,
registered as one RX hook and one TX hook on the pass-through server's
host.  Everything above it (daemon, buffer cache, VFS) is unmodified; the
seams the kernel exposes (Table 1) are the logical-copy socket
discipline and the VFS's key hooks — the LBN annotator, which lets a
written block into the FS cache only while its chunk is cached, and the
pins a reply, a flush or a fill holds on its chunks — all wired up by
:func:`attach_ncache`.

RX: iSCSI Data-In payloads are chunked into the LBN cache; NFS WRITE
payloads into the FHO cache; the placeholder the upper layers will pass
around is left in ``dgram.keyed_payload``.

TX: outgoing NFS READ replies and HTTP responses have their placeholder
fragments *substituted* with the cached network buffers; outgoing iSCSI
writes (buffer-cache flushes) are first *remapped* FHO→LBN, then
substituted (§3.4, Figure 3).  Every key resolves there: the pins a
departing payload carries keep its chunks out of eviction, and the
substitution releases them.  A key that does not resolve is a bug and
raises :class:`~repro.sim.engine.SimulationError`.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..check import sanitizer as _sanitizer
from ..net.buffer import (
    BufferChain,
    CompositePayload,
    NetBuffer,
    Payload,
    SegmentShape,
    concat,
    flatten_payload,
)
from ..net.host import Host
from ..net.network import Datagram
from ..sim.engine import Event, SimulationError
from .chunk import Chunk, pin_all, unpin_all
from .classifier import PacketClassifier, RxAction, TxAction
from .keys import FhoKey, KeyedPayload
from .resize import buffers_for_range, carve_chunks
from .store import NCacheStore

#: ``fn(lbn, payload) -> generator`` writing a block back to storage.
WritebackFn = Callable[[int, Payload], Generator]
#: ``fn(fho_key) -> Optional[lbn]`` — where a file block lives on disk.
FhoToLbnFn = Callable[[FhoKey], Optional[int]]


class NCacheModule:
    """One host's network-centric cache."""

    def __init__(self, host: Host, store: NCacheStore,
                 fho_to_lbn: Optional[FhoToLbnFn] = None,
                 writeback: Optional[WritebackFn] = None,
                 inherit_checksums: bool = True,
                 enable_remap: bool = True) -> None:
        self.host = host
        self.store = store
        self.fho_to_lbn = fho_to_lbn
        self.writeback = writeback
        #: ablation A1: inherit cached checksums on substituted packets
        #: (§1) instead of recomputing when offload is unavailable.
        self.inherit_checksums = inherit_checksums
        #: ablation A3: perform FHO→LBN remapping on flush (§3.4).
        self.enable_remap = enable_remap
        self.counters = host.counters
        self.trace = host.sim.trace
        host.add_rx_hook(self.rx_hook)
        host.add_tx_hook(self.tx_hook)
        self._classifier = PacketClassifier()

    # ------------------------------------------------------------------
    # RX: cache arriving regular data
    # ------------------------------------------------------------------

    def rx_hook(self, dgram: Datagram) -> Generator[Event, Any, Datagram]:
        action = self._classifier.classify_rx(dgram)
        if action is RxAction.PASS:
            return dgram
        if action is RxAction.CACHE_DATA_IN:
            yield from self._cache_data_in(dgram)
        else:
            yield from self._cache_nfs_write(dgram)
        return dgram

    def _carve(self, dgram: Datagram, header_size: int, nblocks: int
               ) -> List[Tuple[Payload, SegmentShape]]:
        """The ``nblocks`` blocks behind ``dgram``'s protocol header."""
        bs = self.store.chunk_size
        carved = carve_chunks(dgram.chain, header_size, nblocks * bs, bs,
                              dgram.rx_train(self.host.buffer_flavor))
        if len(carved) != nblocks:
            raise SimulationError(
                f"chunking {type(dgram.message).__name__} produced "
                f"{len(carved)} chunks for {nblocks} blocks")
        return carved

    def _cache_data_in(self, dgram: Datagram
                       ) -> Generator[Event, Any, None]:
        message = dgram.message
        bs = self.store.chunk_size
        carved = self._carve(dgram, message.header_size, message.nblocks)
        keyed_parts: List[Payload] = []
        held: List[Chunk] = []
        for i, (payload, shape) in enumerate(carved):
            key = message.lba + i
            chunk = yield from self._insert_chunk(Chunk(key, payload, shape))
            chunk.pin()  # until the fill's reply holds it (unpin_keys)
            held.append(chunk)
            keyed_parts.append(KeyedPayload(bs, lbn_key=key))
        keyed_parts[0] = keyed_parts[0].holding(tuple(held))
        dgram.keyed_payload = concat(keyed_parts)
        self.counters.add("ncache.cached_data_in", len(carved))
        if self.trace.enabled:
            self.trace.emit("ncache.cache_data_in", cat="ncache",
                            tid=self.trace.tid_for(self.host.name),
                            lba=message.lba, blocks=len(carved))

    def _cache_nfs_write(self, dgram: Datagram
                         ) -> Generator[Event, Any, None]:
        call = dgram.message
        bs = self.store.chunk_size
        if call.offset % bs or call.count % bs or call.fh is None:
            # Unaligned writes pass through uncached: the server will move
            # the real payload, still correctly, just without the benefit.
            self.counters.add("ncache.unaligned_write_passthrough")
            return
        carved = self._carve(dgram, call.header_size, call.count // bs)
        keyed_parts: List[Payload] = []
        for i, (payload, shape) in enumerate(carved):
            key = FhoKey(call.fh.ino, call.fh.generation,
                         call.offset + i * bs)
            lbn_hint = self.fho_to_lbn(key) if self.fho_to_lbn else None
            yield from self._insert_chunk(
                Chunk(key, payload, shape, dirty=True, lbn_hint=lbn_hint))
            keyed_parts.append(KeyedPayload(bs, fho_key=key))
        dgram.keyed_payload = concat(keyed_parts)
        self.counters.add("ncache.cached_write", len(carved))
        if self.trace.enabled:
            self.trace.emit("ncache.cache_write", cat="ncache",
                            tid=self.trace.tid_for(self.host.name),
                            offset=call.offset, blocks=len(carved))

    def _insert_chunk(self, chunk: Chunk) -> Generator[Event, Any, Chunk]:
        costs = self.host.costs
        yield from self.host.acct.compute(
            costs.ncache_lookup_ns + costs.ncache_mgmt_ns, "ncache.insert")
        store = self.store
        footprint = chunk.footprint(store.per_buffer_overhead,
                                    store.per_chunk_overhead)
        # Write back first, then evict clean (the VFS._evict_for rule).
        while True:
            victims = store.make_room(footprint)
            if not victims:
                break
            for victim in victims:
                yield from self.write_back_chunk(victim)
        if type(chunk.key) is not FhoKey \
                and (resident := store.peek_lbn(chunk.key)) is not None:
            return resident  # a Data-In's disk bytes: as new
        store.insert(chunk, footprint=footprint)
        return chunk  # now resident under its key

    def write_back_chunk(self, chunk: Chunk
                         ) -> Generator[Event, Any, None]:
        """Write back a dirty chunk before it may be reclaimed (§3.4).

        As a flush's remap does ("data in the FHO cache is always more
        up-to-date"), the chunk becomes the clean entry of its LBN (its
        hint), replacing anything older, pinned until on disk.
        """
        self.counters.add("ncache.writeback")
        lbn = chunk.lbn_hint
        if lbn is None or self.writeback is None:
            raise SimulationError(
                f"cannot write back dirty chunk {chunk!r}: "
                f"{'no writeback path' if self.writeback is None else 'no LBN'}")
        san = _sanitizer.active()
        if san is not None:
            san.chunk_written_back(chunk)
        # The flush hands the storage target a fresh copy of the bytes —
        # a modelled physical move on the writeback path, charged by the
        # initiator's accountant.
        payload = chunk.payload().physical_copy()
        if self.enable_remap:
            self.store.remap(chunk.key, lbn)
        else:
            chunk.dirty = False
        chunk.pin()
        try:
            yield from self.writeback(lbn, payload)
        finally:
            chunk.unpin()

    # ------------------------------------------------------------------
    # TX: remap and substitute departing packets
    # ------------------------------------------------------------------

    def tx_hook(self, dgram: Datagram
                ) -> Generator[Event, Any, Datagram]:
        action = self._classifier.classify_tx(dgram)
        if action is TxAction.PASS:
            return dgram
        # One pass straight off the chain gathers the leaves and finds
        # out whether any is a placeholder.  The stack hands the hook one
        # buffer holding the whole message, so each block's placeholder
        # comes unsplit: there are no fragment boundaries to undo.
        leaves: List[Payload] = []
        keyed = False
        for buf in dgram.chain.buffers:
            for leaf in flatten_payload(buf.payload):
                if not keyed and isinstance(leaf, KeyedPayload):
                    keyed = True
                leaves.append(leaf)
        if not keyed:
            return dgram
        if action is TxAction.REMAP_AND_SUBSTITUTE \
                and self.enable_remap:
            yield from self._remap(dgram, leaves)
        yield from self._substitute(dgram, leaves)
        return dgram

    def _remap(self, dgram: Datagram, leaves: List[Payload]
               ) -> Generator[Event, Any, None]:
        """FHO→LBN remapping as the flush passes by (§3.4, Figure 3)."""
        command = dgram.message
        seen: set = set()
        block_index = 0
        for leaf in leaves:
            if not isinstance(leaf, KeyedPayload):
                continue
            fho = leaf.fho_key
            if fho is None or fho in seen:
                continue
            seen.add(fho)
            lbn = leaf.lbn_key
            if lbn is None:
                lbn = command.lba + block_index
            yield from self.host.acct.compute(
                self.host.costs.ncache_remap_ns, "ncache.remap")
            self.store.remap(fho, lbn)
            if self.trace.enabled:
                self.trace.emit("ncache.remap", cat="ncache",
                                tid=self.trace.tid_for(self.host.name),
                                fho=str(fho), lbn=lbn)
            block_index += 1

    def _substitute(self, dgram: Datagram, leaves: List[Payload]
                    ) -> Generator[Event, Any, None]:
        """Swap placeholder fragments for the cached network buffers.

        The outgoing packet list becomes: one leading buffer carrying the
        protocol header bytes (merged with the first cached fragment),
        followed by the cached buffers themselves — "moved directly from
        the network-centric buffer cache to the network interface card"
        (§1).  Framing (packet count, wire bytes) is recomputed.

        A chunk substituted whole goes out as one segment-lazy
        descriptor and is counted from its shape; its per-packet buffers
        are only built for somebody who looks at them (DESIGN.md §11).
        The observers on this host — software checksumming, the
        no-inheritance ablation, a partial-range leaf — take the
        buffer-list path instead.
        """
        costs = self.host.costs
        san = _sanitizer.active()
        if san is not None:
            san.reply_substituted(dgram)
        # Substitution preserves length leaf by leaf (junk, whole chunk
        # or byte range of ``leaf.length``), so the byte total is read
        # off the chain going in: one lazy buffer, not the train.
        payload_bytes = dgram.chain.payload_bytes
        new_buffers: List[NetBuffer] = []
        pending_plain: List[Payload] = []  # header/metadata bytes to merge
        flavor = self.host.buffer_flavor
        # Software checksumming walks this host's outgoing buffers, and
        # the no-inheritance ablation re-describes each one.
        per_buffer = not (self.host.checksum_offload
                          and self.inherit_checksums)
        substituted = 0
        extra_frames = 0  # packets beyond one per entry of new_buffers
        lookups = 0
        t0 = self.host.sim.now
        # Two placeholders may name one chunk (partial ranges of it);
        # the module resolves each *chunk* once per reply (a per-reply
        # lookup table), not once per placeholder.
        resolved: dict = {}
        held: dict = {}  # id -> the chunks this payload pinned (receipts)
        for leaf in leaves:
            if not isinstance(leaf, KeyedPayload):
                pending_plain.append(leaf)
                continue
            if leaf.pinned:
                held[id(leaf.pinned)] = leaf.pinned
            cache_key = (leaf.fho_key, leaf.lbn_key)
            if cache_key in resolved:
                chunk = resolved[cache_key]
            else:
                lookups += 1
                chunk = self.store.resolve(leaf.fho_key, leaf.lbn_key)
                resolved[cache_key] = chunk
            if chunk is None:
                raise SimulationError(
                    f"dangling key {leaf!r} at substitution")
            if san is not None:
                san.chunk_used(chunk, "substitute")
            if leaf.base_offset == 0 and leaf.length == chunk.length:
                if not per_buffer:
                    lazy = chunk.segment_buffer(pending_plain)
                    pending_plain.clear()
                    new_buffers.append(lazy)
                    segments = lazy.n_segments
                    substituted += segments
                    extra_frames += segments - 1
                    continue
                # Whole-block substitution for an observer: the buffer
                # list goes out as-is; buffers_for_range would return
                # identity slices of every buffer.
                cached = chunk.buffers
            else:
                cached = buffers_for_range(chunk.buffers, leaf.base_offset,
                                           leaf.length)
                if self.trace.enabled:
                    self.trace.emit("buffer.extent_slice", cat="buffer",
                                    tid=self.trace.tid_for(self.host.name),
                                    offset=leaf.base_offset,
                                    length=leaf.length,
                                    chunk_length=chunk.length)
            if not self.inherit_checksums:
                # Fresh descriptors (csum_known=False) so the recompute
                # and the stack's subsequent marking never touch the
                # cached buffers.
                cached = [NetBuffer(payload=b.payload, headers=list(b.headers),
                                    flavor=b.flavor)
                          for b in cached]
            substituted += len(cached)
            if pending_plain:
                # Merge header bytes into the first data packet, as the
                # RPC/HTTP header shares the first fragment with data
                # (so it keeps that fragment's flavor — the same packet
                # expand_segments makes from a lazy descriptor).
                first = cached[0]
                merged = NetBuffer(
                    payload=concat(pending_plain + [first.payload]),
                    flavor=first.flavor)
                pending_plain.clear()
                new_buffers.append(merged)
                new_buffers.extend(cached[1:])
            else:
                new_buffers.extend(cached)
        if pending_plain:
            new_buffers.append(NetBuffer(payload=concat(pending_plain),
                                         flavor=flavor))
        unpin_all(itertools.chain.from_iterable(held.values()))

        yield from self.host.acct.compute(
            costs.ncache_reply_fixed_ns
            + lookups * (costs.ncache_lookup_ns + costs.ncache_mgmt_ns)
            + max(1, substituted) * costs.ncache_substitute_ns,
            "ncache.substitute")
        self.counters.add("ncache.substituted_packets", substituted)
        dgram.chain = BufferChain(new_buffers)
        self._recompute_framing(
            dgram, max(1, len(new_buffers) + extra_frames), payload_bytes)
        self.counters.add("ncache.substituted_replies")
        if self.trace.enabled:
            self.trace.complete("ncache.substitute", t0, cat="ncache",
                                tid=self.trace.tid_for(self.host.name),
                                packets=substituted, lookups=lookups,
                                dst=str(dgram.dst))

    def _recompute_framing(self, dgram: Datagram, frames: int,
                           payload: int) -> None:
        costs = self.host.costs
        dgram.n_frames = frames
        if dgram.protocol == "udp":
            dgram.wire_bytes = (payload + costs.udp_header
                                + frames * (costs.ip_header
                                            + costs.ethernet_overhead))
        else:
            dgram.wire_bytes = payload + frames * (
                costs.tcp_header + costs.ip_header + costs.ethernet_overhead)

    # ------------------------------------------------------------------
    # Second-level cache seam (§3.4)
    # ------------------------------------------------------------------

    def try_serve_read(self, lbn: int, nblocks: int
                       ) -> Generator[Event, Any, Optional[Payload]]:
        """Serve a block-device read from the LBN cache if fully present.

        The file-system buffer cache is deliberately small under NCache;
        its misses re-surface here and hit the much larger network-centric
        cache instead of the storage server.  Partial hits fall through to
        the wire (the whole extent is refetched and re-cached).
        """
        costs = self.host.costs
        yield from self.host.acct.compute(
            nblocks * costs.ncache_lookup_ns, "ncache.l2_lookup")
        chunks = list(map(self.store.lookup_lbn, range(lbn, lbn + nblocks)))
        if any(chunk is None for chunk in chunks):
            self.counters.add("ncache.l2_miss")
            if self.trace.enabled:
                self.trace.emit("ncache.l2_miss", cat="ncache",
                                tid=self.trace.tid_for(self.host.name),
                                lbn=lbn, nblocks=nblocks)
            return None
        self.counters.add("ncache.l2_hit")
        san = _sanitizer.active()
        if san is not None:
            for chunk in chunks:
                san.chunk_used(chunk, "l2_serve")
        receipt = tuple(chunks)
        pin_all(receipt)  # until the fill's reply holds them
        if self.trace.enabled:
            self.trace.emit("ncache.l2_hit", cat="ncache",
                            tid=self.trace.tid_for(self.host.name),
                            lbn=lbn, nblocks=nblocks)
        yield from self.host.acct.compute(
            nblocks * costs.ncache_mgmt_ns, "ncache.l2_serve")
        parts: List[Payload] = [
            KeyedPayload(chunk.length, lbn_key=chunk.key) for chunk in chunks]
        parts[0] = parts[0].holding(receipt)
        return concat(parts)

    # ------------------------------------------------------------------
    # VFS seams
    # ------------------------------------------------------------------

    def lbn_annotator(self, block_payload: Payload, lbn: int
                      ) -> Optional[Payload]:
        """The block the FS cache may store at ``lbn``, or ``None``.

        A fill's block comes stamped, its chunk pinned by the fill; it
        goes in without the pins, which stay the fill's.  A written
        block gets its LBN key stamped on, so post-remap lookups succeed
        (§3.4), and is let in only while its FHO chunk is cached: the
        WRITE yields between the RX hook and the page insert, and a
        chunk evicted meanwhile went to the LBN by writeback, where an
        LBN chunk may be older.
        """
        if not isinstance(block_payload, KeyedPayload):
            return block_payload
        if block_payload.fho_key is None:
            return block_payload.holding(()) if block_payload.pinned \
                else block_payload
        if self.store.peek_fho(block_payload.fho_key) is None:
            return None
        return block_payload.with_lbn(lbn)

    def pin_keys(self, payload: Payload) -> Optional[Payload]:
        """``payload`` with the chunk behind each of its keys pinned, or
        ``None`` (and nothing pinned) if a key no longer resolves.

        Called as a reply or a flush leaves the FS cache.  A pinned
        chunk is never an eviction victim, so each key still resolves
        when the TX hook substitutes it, and the substitution releases
        the pins.  The payload's first placeholder carries the chunks
        it pinned: by TX time an overwrite or a remap may have put a
        newer chunk under a key, and the pins to release are these.
        Pinning charges no simulated time.
        """
        leaves = flatten_payload(payload)
        peek = self.store.peek
        pinned: List[Chunk] = []
        first = -1  # the first placeholder, which carries the receipt
        for i, leaf in enumerate(leaves):
            if isinstance(leaf, KeyedPayload):
                chunk = peek(leaf.fho_key, leaf.lbn_key)
                if chunk is None:
                    return None
                pinned.append(chunk)
                if first < 0:
                    first = i
        if first < 0:
            return payload
        receipt = tuple(pinned)
        pin_all(receipt)
        head = leaves[first].holding(receipt)
        if isinstance(payload, CompositePayload):
            return payload.replacing(first, head)
        return head

    def unpin_keys(self, payload: Payload) -> None:
        """Release the pins ``payload``'s placeholders carry: a fill's,
        once its reply holds its own keys."""
        for leaf in flatten_payload(payload):
            if isinstance(leaf, KeyedPayload) and leaf.pinned:
                unpin_all(leaf.pinned)
