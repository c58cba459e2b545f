"""repro.cache — the unified eviction kernel (DESIGN.md §9).

One replacement engine behind both of the repo's caches: the
network-centric chunk store (:class:`~repro.core.store.NCacheStore`) and
the file-system page cache (:class:`~repro.fs.buffer_cache.BufferCache`).
The paper fixes replacement at "classic LRU over fixed-size chunks"
(§3.4), and each cache keeps the fixed byte budget its configuration
gives it.

Public surface:

* :class:`~repro.cache.kernel.CacheKernel` — byte budget,
  pin/dirty-aware victim selection, ghost-hit estimation and
  ``cache.<name>.*`` metrics; each cached item is its own handle;
* :mod:`~repro.cache.policy` — the :class:`~repro.cache.policy.Policy`
  interface and :class:`~repro.cache.policy.LruPolicy`, whose recency
  list maps item to ``(key, nbytes)`` and is the only per-entry table.
"""

from .kernel import CacheKernel, CacheStallError
from .policy import POLICIES, Policy, make_policy

__all__ = [
    "CacheKernel",
    "CacheStallError",
    "POLICIES",
    "Policy",
    "make_policy",
]
