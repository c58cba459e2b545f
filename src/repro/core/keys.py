"""Cache keys and the key-carrying placeholder payload.

Logical copying (§3.1) replaces payload movement with movement of *keys*:

* :class:`LbnKey` — logical block number; indexes data that arrived from
  the iSCSI storage server (the LBN cache).
* :class:`FhoKey` — file handle + offset; indexes data that arrived in NFS
  write requests (the FHO cache).

A :class:`KeyedPayload` is what flows through the unmodified server code
in place of real data: "the retrieved block contains only a key and some
'junk' data, nonetheless the NFS server can still compose a valid NFS read
reply from the block, because it does not interpret the block's data"
(§3.2).  A placeholder may carry *both* keys — a block that was read and
then overwritten is found under its FHO key first, falling back to the LBN
key after remapping, which is precisely the lookup order §3.4 mandates to
guarantee clients "always receive the most up-to-date data".

Both keys are tuples of ints (:class:`typing.NamedTuple`): they are
built, hashed and compared in C, and a key's hash is its tuple's hash,
so no dict or ghost-list order depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

from ..net.buffer import Payload, PlaceholderPayload


class LbnKey(NamedTuple):
    """Identifies one filesystem block by its on-disk address."""

    lun: int
    lbn: int

    def __str__(self) -> str:
        return f"lbn({self.lun},{self.lbn})"


class FhoKey(NamedTuple):
    """Identifies one file block by file handle and byte offset."""

    ino: int
    generation: int
    offset: int

    def __str__(self) -> str:
        return f"fho({self.ino}.{self.generation}@{self.offset})"


class KeyedPayload(PlaceholderPayload):
    """Junk-valued payload carrying the key(s) of the real cached data.

    ``base_offset`` tracks where this placeholder starts within the cached
    block, so protocol-layer slicing (IP fragmentation, TCP segmentation)
    preserves enough information for substitution to reassemble the right
    bytes (§3.5's split/merge requirement).

    ``pinned`` is set on the first placeholder of an outgoing reply or
    flush: the chunks that payload pinned when it left the FS cache, for
    the TX hook that substitutes it to release.  Anywhere else it is
    empty.  (Typed ``Any``: importing the chunk module here would add
    this module to Table 1's list of modules that import NCache.)
    """

    __slots__ = ("lbn_key", "fho_key", "base_offset", "pinned")

    def __init__(self, length: int, lbn_key: Optional[LbnKey] = None,
                 fho_key: Optional[FhoKey] = None,
                 base_offset: int = 0,
                 pinned: Tuple[Any, ...] = ()) -> None:
        if length < 0:
            raise ValueError("negative length")
        if lbn_key is None and fho_key is None:
            raise ValueError("KeyedPayload needs at least one key")
        # Base attributes set inline rather than through the two-deep
        # super().__init__ chain: placeholders are created on every
        # slice along the transport path, and the call overhead shows.
        self.length = length
        self.lbn_key = lbn_key
        self.fho_key = fho_key
        self.base_offset = base_offset
        self.pinned = pinned

    def slice(self, offset: int, length: int) -> Payload:
        self._check_slice(offset, length)
        return KeyedPayload(length, self.lbn_key, self.fho_key,
                            self.base_offset + offset, self.pinned)

    def physical_copy(self) -> Payload:
        return KeyedPayload(self.length, self.lbn_key, self.fho_key,
                            self.base_offset, self.pinned)

    def holding(self, pinned: Tuple[Any, ...]) -> "KeyedPayload":
        """A copy of this placeholder that carries the ``pinned`` chunks."""
        return KeyedPayload(self.length, self.lbn_key, self.fho_key,
                            self.base_offset, pinned)

    def with_lbn(self, lbn_key: LbnKey) -> "KeyedPayload":
        """A copy of this placeholder that also knows its LBN."""
        return KeyedPayload(self.length, lbn_key, self.fho_key,
                            self.base_offset)

    def __repr__(self) -> str:
        keys = ", ".join(str(k) for k in (self.fho_key, self.lbn_key) if k)
        return f"KeyedPayload({keys}, off={self.base_offset}, {self.length}B)"
