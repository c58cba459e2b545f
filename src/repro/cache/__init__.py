"""repro.cache — the unified eviction kernel (DESIGN.md §9).

One replacement engine behind both of the repo's caches: the
network-centric chunk store (:class:`~repro.core.store.NCacheStore`) and
the file-system page cache (:class:`~repro.fs.buffer_cache.BufferCache`).
The paper fixes replacement at "classic LRU over fixed-size chunks"
(§3.4); this package reproduces that exactly as the default policy while
making the policy a first-class, benchmarkable dimension
(``experiments/policy_ablation.py``).

Public surface:

* :class:`~repro.cache.kernel.CacheKernel` — byte budget,
  pin/dirty-aware victim selection, ghost-hit estimation and
  ``cache.<name>.*`` metrics; each cached item is its own handle;
* :mod:`~repro.cache.policy` — the :class:`~repro.cache.policy.Policy`
  interface, whose recency lists map item to ``(key, nbytes)`` and are
  the only per-entry table, and the ``lru`` / ``clock`` / ``slru`` /
  ``arc`` implementations;
* :mod:`~repro.cache.arbiter` — the memory-budget arbiter
  (:class:`~repro.cache.arbiter.MemoryArbiter` leases, the
  :class:`~repro.cache.arbiter.StaticSplit` paper squeeze and the
  :class:`~repro.cache.arbiter.GhostGradient` feedback controller,
  DESIGN.md §12).
"""

from .arbiter import (ArbiterSpec, BudgetLease, GhostGradient,
                      MemoryArbiter, StaticSplit, make_arbiter)
from .kernel import BudgetWindow, CacheKernel, CacheStallError
from .policy import POLICIES, Policy, make_policy

__all__ = [
    "ArbiterSpec",
    "BudgetLease",
    "BudgetWindow",
    "CacheKernel",
    "CacheStallError",
    "GhostGradient",
    "MemoryArbiter",
    "POLICIES",
    "Policy",
    "StaticSplit",
    "make_arbiter",
    "make_policy",
]
