"""repro.cache — the unified eviction kernel (DESIGN.md §9).

One replacement engine behind both of the repo's caches: the
network-centric chunk store (:class:`~repro.core.store.NCacheStore`) and
the file-system page cache (:class:`~repro.fs.buffer_cache.BufferCache`).
The paper fixes replacement at "classic LRU over fixed-size chunks"
(§3.4), and each cache keeps the fixed byte budget its configuration
gives it.

Public surface: :class:`~repro.cache.kernel.CacheKernel` — byte budget,
one recency list mapping each resident item (its own handle) to its
size, pin/dirty-aware victim selection and ``cache.<name>.*`` metrics —
and :class:`~repro.cache.kernel.CacheStallError`.
"""

from .kernel import CacheKernel, CacheStallError

__all__ = ["CacheKernel", "CacheStallError"]
