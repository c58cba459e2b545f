"""The NCache module: on-the-fly packet caching and substitution.

This is the paper's loadable kernel module, inserted "into the layer
between the network stack and the Ethernet device driver" (§4.1) — here,
registered as one RX hook and one TX hook on the pass-through server's
host.  Everything above it (daemon, buffer cache, VFS) is unmodified; the
two seams the kernel exposes (Table 1) are the logical-copy socket
discipline and the VFS's LBN annotator, both wired up by
:func:`attach_ncache`.

RX: iSCSI Data-In payloads are chunked into the LBN cache; NFS WRITE
payloads into the FHO cache; the placeholder the upper layers will pass
around is left in ``dgram.keyed_payload``.

TX: outgoing NFS READ replies and HTTP responses have their placeholder
fragments *substituted* with the cached network buffers; outgoing iSCSI
writes (buffer-cache flushes) are first *remapped* FHO→LBN, then
substituted (§3.4, Figure 3).
"""

from __future__ import annotations

import itertools
from typing import (Any, Callable, Generator, Iterable, List, Optional,
                    Tuple)

from ..check import sanitizer as _sanitizer
from ..net.buffer import (
    BufferChain,
    JunkPayload,
    NetBuffer,
    Payload,
    SegmentShape,
    concat,
    flatten_payload,
)
from ..net.host import Host
from ..net.network import Datagram
from ..sim.engine import Event, SimulationError
from .chunk import Chunk
from .classifier import PacketClassifier, RxAction, TxAction
from .keys import FhoKey, KeyedPayload, LbnKey
from .resize import buffers_for_range, carve_chunks
from .store import NCacheStore

#: ``fn(lbn, payload) -> generator`` writing a block back to storage.
WritebackFn = Callable[[int, Payload], Generator]
#: ``fn(fho_key) -> Optional[LbnKey]`` — where a file block lives on disk.
FhoToLbnFn = Callable[[FhoKey], Optional[LbnKey]]


def coalesce_keyed(leaves: Iterable[Payload]) -> Optional[List[Payload]]:
    """Merge adjacent keyed leaves that are contiguous views of one chunk.

    Transport fragmentation slices the per-block placeholders at packet
    boundaries; substitution must not preserve those junk boundaries — the
    real module replaces the whole packet list with the stored buffers.
    Coalescing recovers the per-block placeholders before resolution.
    ``None`` when no leaf is keyed: there is nothing to substitute.
    """
    out: List[Payload] = []
    prev: Optional[KeyedPayload] = None  # out[-1], while that is keyed
    keyed = False
    for leaf in leaves:
        if isinstance(leaf, KeyedPayload):
            if (prev is not None
                    and prev.fho_key == leaf.fho_key
                    and prev.lbn_key == leaf.lbn_key
                    and prev.base_offset + prev.length == leaf.base_offset):
                out.pop()
                leaf = KeyedPayload(prev.length + leaf.length, prev.lbn_key,
                                    prev.fho_key, prev.base_offset)
            prev = leaf
            keyed = True
        else:
            prev = None
        out.append(leaf)
    return out if keyed else None


class NCacheModule:
    """One host's network-centric cache."""

    def __init__(self, host: Host, store: NCacheStore, lun: int = 0,
                 fho_to_lbn: Optional[FhoToLbnFn] = None,
                 writeback: Optional[WritebackFn] = None,
                 strict: bool = False,
                 inherit_checksums: bool = True,
                 enable_remap: bool = True) -> None:
        self.host = host
        self.store = store
        self.lun = lun
        self.fho_to_lbn = fho_to_lbn
        self.writeback = writeback
        #: strict=True turns substitution misses into errors (tests);
        #: strict=False serves junk and counts, like a real race would.
        self.strict = strict
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
        carved = carve_chunks(dgram.chain, header_size, nblocks * bs, bs)
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
        for i, (payload, shape) in enumerate(carved):
            key = LbnKey(self.lun, message.lba + i)
            yield from self._insert_chunk(Chunk(key, payload, shape))
            keyed_parts.append(KeyedPayload(bs, lbn_key=key))
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

    def _insert_chunk(self, chunk: Chunk) -> Generator[Event, Any, None]:
        costs = self.host.costs
        yield from self.host.acct.compute(
            costs.ncache_lookup_ns + costs.ncache_mgmt_ns, "ncache.insert")
        store = self.store
        footprint = chunk.footprint(store.per_buffer_overhead,
                                    store.per_chunk_overhead)
        # Writing back a dirty victim yields, and a concurrent insert can
        # claim the room it freed: re-evict until the room survives the
        # writebacks (the VFS._evict_for rule; clean victims never yield).
        while True:
            for victim in store.make_room(footprint):
                yield from self._write_back_chunk(victim)
            if store.fits(chunk, footprint):
                break
        store.insert(chunk, footprint=footprint)

    def _write_back_chunk(self, chunk: Chunk
                          ) -> Generator[Event, Any, None]:
        """Flush a dirty chunk that is being reclaimed (§3.4).

        The target LBN comes from the chunk's remapped key or its hint.
        """
        self.counters.add("ncache.writeback")
        if isinstance(chunk.key, LbnKey):
            lbn_key: Optional[LbnKey] = chunk.key
        else:
            lbn_key = chunk.lbn_hint
        if lbn_key is None or self.writeback is None:
            raise SimulationError(
                f"cannot write back dirty chunk {chunk!r}: "
                f"{'no writeback path' if self.writeback is None else 'no LBN'}")
        san = _sanitizer.active()
        if san is not None:
            san.chunk_written_back(chunk)
        # The flush hands the storage target a fresh copy of the bytes —
        # a modelled physical move on the writeback path, charged by the
        # initiator's accountant.
        payload = chunk.payload().physical_copy()  # check: ignore[copy-discipline] -- writeback data plane, charged by initiator.write
        yield from self.writeback(lbn_key.lbn, payload)

    def write_back_chunk(self, chunk: Chunk
                         ) -> Generator[Event, Any, None]:
        """Flush one evicted dirty chunk (the arbiter's writeback
        routine for chunks its squeeze dislodges from the store)."""
        yield from self._write_back_chunk(chunk)

    # ------------------------------------------------------------------
    # TX: remap and substitute departing packets
    # ------------------------------------------------------------------

    def tx_hook(self, dgram: Datagram
                ) -> Generator[Event, Any, Datagram]:
        decision = self._classifier.classify_tx(dgram)
        if decision.action is TxAction.PASS:
            return dgram
        # One pass straight off the chain gathers the leaves, finds out
        # whether any is a placeholder and undoes fragment boundaries.
        leaves = coalesce_keyed(itertools.chain.from_iterable(
            flatten_payload(buf.payload) for buf in dgram.chain.buffers))
        if leaves is None:
            return dgram
        if decision.action is TxAction.REMAP_AND_SUBSTITUTE \
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
            lbn_key = leaf.lbn_key
            if lbn_key is None:
                lbn_key = LbnKey(command.lun, command.lba + block_index)
            yield from self.host.acct.compute(
                self.host.costs.ncache_remap_ns, "ncache.remap")
            self.store.remap(fho, lbn_key)
            if self.trace.enabled:
                self.trace.emit("ncache.remap", cat="ncache",
                                tid=self.trace.tid_for(self.host.name),
                                fho=str(fho), lbn=lbn_key.lbn)
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
        misses = 0
        t0 = self.host.sim.now
        # Transport fragmentation may slice one block's placeholder across
        # several packets; the module resolves each *chunk* once per reply
        # (a per-reply lookup table), not once per fragment.
        resolved: dict = {}

        def emit_plain() -> None:
            if pending_plain:
                new_buffers.append(NetBuffer(payload=concat(pending_plain),
                                             flavor=flavor))
                pending_plain.clear()

        for leaf in leaves:
            if not isinstance(leaf, KeyedPayload):
                pending_plain.append(leaf)
                continue
            cache_key = (leaf.fho_key, leaf.lbn_key)
            if cache_key in resolved:
                chunk = resolved[cache_key]
            else:
                lookups += 1
                chunk = self.store.resolve(leaf.fho_key, leaf.lbn_key)
                resolved[cache_key] = chunk
            if chunk is None:
                self.counters.add("ncache.substitute_miss")
                misses += 1
                if san is not None:
                    san.substitute_miss(leaf.fho_key, leaf.lbn_key)
                if self.strict:
                    raise SimulationError(
                        f"substitution miss for {leaf!r}")
                pending_plain.append(JunkPayload(leaf.length))
                continue
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
        emit_plain()

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
                                misses=misses, dst=str(dgram.dst))

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
        keys = [LbnKey(self.lun, lbn + i) for i in range(nblocks)]
        chunks = [self.store.lookup_lbn(key) for key in keys]
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
        if self.trace.enabled:
            self.trace.emit("ncache.l2_hit", cat="ncache",
                            tid=self.trace.tid_for(self.host.name),
                            lbn=lbn, nblocks=nblocks)
        yield from self.host.acct.compute(
            nblocks * costs.ncache_mgmt_ns, "ncache.l2_serve")
        parts: List[Payload] = [
            KeyedPayload(chunk.length, lbn_key=key)
            for key, chunk in zip(keys, chunks)]
        return concat(parts)

    # ------------------------------------------------------------------
    # VFS seam
    # ------------------------------------------------------------------

    def lbn_annotator(self, block_payload: Payload, lbn: int) -> Payload:
        """Stamp the LBN key onto keyed blocks stored in the FS cache."""
        if isinstance(block_payload, KeyedPayload):
            return block_payload.with_lbn(LbnKey(self.lun, lbn))
        return block_payload
