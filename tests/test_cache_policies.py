"""The replacement policy against an executable reference model.

The policy is driven through the kernel by a deterministic randomized
op stream (:func:`repro.sim.rng.substream`, so failures reproduce
bit-for-bit from the seed) while a plain-list reference model of the
same algorithm shadows it.  After every op the two must agree on the
cold-to-hot handle order, and every eviction must take exactly the
victim the reference predicts.

LRU's reference is the classic recency list — the paper's §3.4
replacement and the behavior the pre-kernel hand-rolled stores had, so
this doubles as the refactor-fidelity lock.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheKernel
from repro.sim.rng import substream


class Item:
    def __init__(self):
        self.dirty = False
        self.pinned = False


class RefLru:
    """Touch moves to tail; victim is the head."""

    def __init__(self):
        self.order = []  # cold -> hot

    def insert(self, h, key):
        self.order.append(h)

    def touch(self, h):
        self.order.remove(h)
        self.order.append(h)

    def remove(self, h):
        self.order.remove(h)

    def evicted(self, h, key):
        self.remove(h)

    def victim(self):
        return self.order[0]

    def handles(self):
        return list(self.order)


MODELS = {"lru": RefLru}

CAPACITY = 8
N_KEYS = 24
OPS = 500


@pytest.mark.parametrize("policy", sorted(MODELS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_policy_agrees_with_reference_model(policy, seed):
    rng = substream(seed, f"cache-policy-{policy}")
    kernel = CacheKernel("test", CAPACITY, policy=policy)
    ref = MODELS[policy]()
    live = {}  # key -> handle

    def on_evict(item):
        expected = ref.victim()
        assert item.handle == expected, \
            f"{policy}: evicted {item.handle}, reference says {expected}"
        ref.evicted(item.handle, item.key)
        del live[item.key]

    for _ in range(OPS):
        op = rng.choice(["insert", "insert", "touch", "miss", "remove"])
        key = rng.randrange(N_KEYS)
        if op == "insert" and key not in live:
            kernel.make_room(1, on_evict=on_evict)
            item = Item()
            h = kernel.insert(key, item, 1)
            assert h is item
            item.handle, item.key = h, key
            ref.insert(h, key)
            live[key] = h
        elif op == "touch" and key in live:
            kernel.touch(live[key])
            ref.touch(live[key])
        elif op == "miss" and key not in live:
            kernel.lookup_in({})(key)
        elif op == "remove" and key in live:
            h = live.pop(key)
            kernel.remove(h)
            ref.remove(h)
        assert [item for _, item in kernel.items()] == ref.handles(), policy

    assert len(kernel) == len(live)


@pytest.mark.parametrize("seed", [5, 6])
def test_lru_matches_pre_kernel_recency_list(seed):
    """The fidelity lock: under the LRU policy the kernel's eviction
    order is exactly the single recency list the paper's store kept."""
    rng = substream(seed, "cache-policy-lru-fidelity")
    kernel = CacheKernel("test", CAPACITY, policy="lru")
    order = []  # the old hand-rolled structure: one list, cold -> hot
    live = {}
    for i in range(300):
        key = rng.randrange(N_KEYS)
        if key in live:
            kernel.touch(live[key])
            order.remove(key)
            order.append(key)
        else:
            evicted = kernel.make_room(
                1, on_evict=lambda it: live.pop(order.pop(0)))
            assert evicted == []
            live[key] = kernel.insert(key, Item(), 1)
            order.append(key)
        assert [k for k, _ in kernel.items()] == order
