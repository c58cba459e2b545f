"""Wiring NCache into a pass-through server (the <150 modified lines).

:func:`attach_ncache` performs the integrations Table 1 enumerates:

* the NCache module hooks in below the network stack (RX/TX hooks);
* the VFS gets the LBN annotator (the logical-copy read/write seam),
  which lets a written block in only while its chunk is cached, and
  the pins a reply, a flush or a fill holds on its chunks;
* the initiator is the writeback path for reclaimed dirty chunks;
* a reclaim listener keeps the file-system cache coherent: a page whose
  placeholder keys can no longer be resolved is dropped, so a later read
  refetches.  With the annotator's check this makes every keyed FS page
  resolve at all times, and with the pins every departing key resolve
  at the TX hook.  (Engineering completion of §3.4 — the paper relies
  on the FS cache being much smaller than NCache.)
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..fs.vfs import VFS
from ..iscsi.initiator import IscsiInitiator
from ..net.buffer import Payload, flatten_payload
from ..net.host import Host
from ..sim.engine import Event
from .chunk import Chunk
from .keys import FhoKey, KeyedPayload, LbnKey
from .ncache import NCacheModule
from .store import NCacheStore


def attach_ncache(host: Host, vfs: VFS,
                  initiator: Optional[IscsiInitiator],
                  capacity_bytes: int,
                  lun: int = 0,
                  inherit_checksums: bool = True,
                  enable_remap: bool = True,
                  policy: str = "lru") -> NCacheModule:
    """Create, wire and return an NCache module for this server."""
    store = NCacheStore(capacity_bytes, chunk_size=vfs.block_size,
                        counters=host.counters, trace=host.sim.trace,
                        policy=policy)
    image = vfs.image

    def fho_to_lbn(key: FhoKey) -> Optional[LbnKey]:
        try:
            inode = image.inode(key.ino)
        except FileNotFoundError:
            return None
        block = key.offset // image.block_size
        if block >= inode.nblocks:
            return None
        return LbnKey(lun, inode.block_lbn(block))

    writeback = None
    if initiator is not None:
        def writeback(lbn: int, payload: Payload
                      ) -> Generator[Event, Any, None]:
            if enable_remap:  # the chunk is under ``lbn`` now
                vfs.hold_for_fills(lbn, KeyedPayload(
                    vfs.block_size, lbn_key=LbnKey(lun, lbn)))
            yield from initiator.write(lbn, payload)

    module = NCacheModule(host, store, lun=lun, fho_to_lbn=fho_to_lbn,
                          writeback=writeback,
                          inherit_checksums=inherit_checksums,
                          enable_remap=enable_remap)
    vfs.lbn_annotator = module.lbn_annotator
    vfs.pin_keys = module.pin_keys
    vfs.unpin_keys = module.unpin_keys
    if initiator is not None:
        initiator.read_interceptor = module.try_serve_read

    def entry_resolvable(payload: Payload) -> bool:
        for leaf in flatten_payload(payload):
            if isinstance(leaf, KeyedPayload):
                if store.peek(leaf.fho_key, leaf.lbn_key) is None:
                    return False
        return True

    def on_reclaim(chunk: Chunk) -> None:
        if isinstance(chunk.key, LbnKey):
            lbn_key: Optional[LbnKey] = chunk.key
        else:
            lbn_key = chunk.lbn_hint or fho_to_lbn(chunk.key)
        if lbn_key is None:
            return
        entry = vfs.cache.peek(lbn_key.lbn)
        if entry is None:
            return
        if not entry_resolvable(entry.payload):
            vfs.cache.invalidate(lbn_key.lbn)
            host.counters.add("ncache.fs_page_invalidated")

    store.reclaim_listeners.append(on_reclaim)
    return module
