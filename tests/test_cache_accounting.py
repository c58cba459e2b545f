"""One accounted lookup: cache traffic is counted in ``cache.kernel`` only.

``lookup`` is traffic (a hit counts and promotes, a miss counts and
probes the ghost list); ``peek`` is bookkeeping and touches nothing;
the ``cache.<name>.*`` family is the only cache counter (that the
kernel alone counts is ``tests/test_tree_invariants.py``'s job).
"""

import pytest

from repro.cache import POLICIES
from repro.core import FhoKey, LbnKey
from repro.fs import BLOCK_SIZE, BufferCache
from repro.net.buffer import JunkPayload

from test_ncache_store import FOOTPRINT, chunk_for, store_of


def _store_case(policy):
    """(metrics, order, peeks, lookup, resident, absent, ghosted)."""
    store = store_of(2, policy=policy)
    keys = [LbnKey(0, 1), LbnKey(0, 2)]
    for key in keys:
        store.make_room(FOOTPRINT)
        store.insert(chunk_for(key))
    store.make_room(FOOTPRINT)  # evicts one of the two into the ghost list
    store.insert(chunk_for(FhoKey(1, 1, 0)))
    (ghosted,) = [key for key in keys if store.peek_lbn(key) is None]
    (resident,) = [key for key in keys if key != ghosted]

    def peeks(key):
        store.peek_lbn(key)
        store.peek_fho(FhoKey(1, 1, 0))
        store.peek(FhoKey(9, 9, 0), key)

    return (store.kernel_metrics, lambda: [c.key for c in store.chunks()],
            peeks, store.lookup_lbn, resident, LbnKey(0, 99), ghosted)


def _bcache_case(policy):
    cache = BufferCache(2 * BLOCK_SIZE, policy=policy)
    for lbn in (1, 2, 3):  # the third insert evicts one of the first two
        cache.make_room(1)
        cache.insert(lbn, JunkPayload(BLOCK_SIZE))
    (ghosted,) = [lbn for lbn in (1, 2) if cache.peek(lbn) is None]
    (resident,) = [lbn for lbn in (1, 2) if lbn != ghosted]
    return (cache.kernel_metrics,
            lambda: [entry.lbn for _, entry in cache._kernel.items()],
            cache.peek, cache.lookup, resident, 99, ghosted)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("case", [_store_case, _bcache_case])
def test_peek_counts_probes_and_promotes_nothing(case, policy):
    metrics, order, peek, lookup, resident, absent, ghosted = case(policy)

    def state():
        return (metrics.hit.total, metrics.miss.total,
                metrics.ghost_hit.total, order())

    before = state()
    for key in (resident, absent, ghosted):
        peek(key)
    assert state() == before
    # The control: the same three keys asked as traffic are all counted,
    # so the peeks above had something to get wrong.
    for key in (resident, absent, ghosted):
        lookup(key)
    hit, miss, ghost_hit, _ = before
    assert state()[:3] == (hit + 1, miss + 2, ghost_hit + 1)
