"""The cache kernel's recency order against the paper's store.

A deterministic randomized op stream (:func:`repro.sim.rng.substream`,
so a failure reproduces bit-for-bit from its seed) drives a
:class:`CacheKernel` while ``tests/store_oracle.py``'s
:class:`PaperStore` shadows it.  After every op the two agree on the
cold-to-hot order, and every eviction takes the chunk the paper's store
reclaims: §3.4's one recency list, the behaviour the pre-kernel
hand-rolled stores had, so this doubles as the refactor-fidelity lock.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheKernel
from repro.sim.rng import substream

from store_oracle import Entry, PaperStore

CAPACITY = 8
N_KEYS = 24


class Item:
    def __init__(self, key):
        self.key, self.dirty, self.pinned = key, False, False


def _shadowed(policy):
    """A kernel, the paper's store, and the kernel's evictions so far."""
    kernel, evicted = CacheKernel("test", CAPACITY, policy=policy), []
    return kernel, PaperStore(CAPACITY), evicted


def _insert(kernel, model, evicted, key):
    assert kernel.make_room(
        1, on_evict=lambda item: evicted.append(item.key)) == []
    item = Item(key)
    assert kernel.insert(key, item, 1) is item
    model.insert(Entry(key, None))
    return item


def _agree(kernel, model, evicted):
    assert [item.key for item in kernel.items()] \
        == [entry.key for entry in model.order]
    assert evicted == [key for key, _, _ in model.reclaimed]


@pytest.mark.parametrize("policy", ["lru"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_policy_agrees_with_reference_model(policy, seed):
    """Inserts, touches, misses and removals of the kernel's one policy."""
    rng = substream(seed, f"cache-policy-{policy}")
    kernel, model, evicted = _shadowed(policy)
    live = {}  # key -> item; which are resident is the model's to say
    for _ in range(500):
        op = rng.choice(["insert", "insert", "touch", "miss", "remove"])
        key = rng.randrange(N_KEYS)
        resident = key in model.lbn
        if op == "insert" and not resident:
            live[key] = _insert(kernel, model, evicted, key)
        elif op == "touch" and resident:
            kernel.touch(live[key])
            model.lookup(key)
        elif op == "miss" and not resident:
            assert kernel.lookup_in({})(key) is None
            assert model.lookup(key) is None
        elif op == "remove" and resident:
            kernel.remove(live[key])
            evicted.append(key)
            model.reclaim(model.lbn[key])
        _agree(kernel, model, evicted)
    assert len(kernel) == len(model.lbn) == len(model.order)


@pytest.mark.parametrize("seed", [5, 6])
def test_lru_matches_pre_kernel_recency_list(seed):
    """The fidelity lock: a hit moves its entry to the hot end, a miss
    evicts from the cold end, exactly as the paper's one list does."""
    rng = substream(seed, "cache-policy-lru-fidelity")
    kernel, model, evicted = _shadowed("lru")
    live = {}
    for _ in range(300):
        key = rng.randrange(N_KEYS)
        if key in model.lbn:
            kernel.touch(live[key])
            model.lookup(key)
        else:
            live[key] = _insert(kernel, model, evicted, key)
        _agree(kernel, model, evicted)
