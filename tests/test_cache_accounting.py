"""One accounted lookup: cache traffic is counted in ``cache.kernel`` only.

``lookup`` is traffic (a hit counts and promotes, a miss counts);
``peek`` is bookkeeping and touches nothing; the ``cache.<name>.*``
family is the only cache counter (that the kernel alone counts is
``tests/test_tree_invariants.py``'s job).  Both hold whichever entry the
victim order evicted.
"""

import pytest

from repro.core import FhoKey
from repro.fs import BLOCK_SIZE, BufferCache
from repro.net.buffer import JunkPayload

from integrity_search import ORDERS, victim_order
from test_ncache_store import FOOTPRINT, chunk_for, store_of


def _store_case():
    """(traffic, order, peeks, lookup, resident, absent, evicted)."""
    store = store_of(2)
    keys = [1, 2]
    for key in keys:
        store.make_room(FOOTPRINT)
        store.insert(chunk_for(key))
    store.make_room(FOOTPRINT)  # evicts one of the two
    store.insert(chunk_for(FhoKey(1, 1, 0)))
    (evicted,) = [key for key in keys if store.peek_lbn(key) is None]
    (resident,) = [key for key in keys if key != evicted]

    def peeks(key):
        store.peek_lbn(key)
        store.peek_fho(FhoKey(1, 1, 0))
        store.peek(FhoKey(9, 9, 0), key)

    return (lambda: (store.counters["cache.ncache.hit"].total,
                     store.counters["cache.ncache.miss"].total),
            lambda: [c.key for c in store.chunks()],
            peeks, store.lookup_lbn, resident, 99, evicted)


def _bcache_case():
    cache = BufferCache(2 * BLOCK_SIZE)
    for lbn in (1, 2, 3):  # the third insert evicts one of the first two
        cache.make_room(1)
        cache.insert(lbn, JunkPayload(BLOCK_SIZE))
    (evicted,) = [lbn for lbn in (1, 2) if cache.peek(lbn) is None]
    (resident,) = [lbn for lbn in (1, 2) if lbn != evicted]
    return (lambda: (cache.counters["cache.bcache.hit"].total,
                     cache.counters["cache.bcache.miss"].total),
            lambda: [entry.lbn for entry in cache._kernel.items()],
            cache.peek, cache.lookup, resident, 99, evicted)


@pytest.mark.parametrize("order", ["lru"] + sorted(ORDERS))
@pytest.mark.parametrize("case", [_store_case, _bcache_case])
def test_peek_counts_probes_and_promotes_nothing(case, order):
    with victim_order(order):
        traffic, recency, peek, lookup, resident, absent, evicted = case()

    def state():
        return (*traffic(), recency())

    before = state()
    for key in (resident, absent, evicted):
        peek(key)
    assert state() == before
    # The control: the same three keys asked as traffic are all counted,
    # so the peeks above had something to get wrong.
    for key in (resident, absent, evicted):
        lookup(key)
    hit, miss, _ = before
    assert state()[:2] == (hit + 1, miss + 2)
