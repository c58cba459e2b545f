"""Every replacement policy against an executable reference model.

Each policy is driven through the kernel by a deterministic randomized
op stream (:func:`repro.sim.rng.substream`, so failures reproduce
bit-for-bit from the seed) while a plain-list reference model of the
same algorithm shadows it.  After every op the two must agree on the
cold-to-hot handle order, and every eviction must take exactly the
victim the reference predicts.

LRU's reference is the classic recency list — the paper's §3.4
replacement and the behavior the pre-kernel hand-rolled stores had, so
this doubles as the refactor-fidelity lock.  CLOCK, SLRU and ARC are
checked against reference models of their own algorithms.
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


class RefClock:
    """Second-chance FIFO: the hand clears reference bits and rotates."""

    def __init__(self):
        self.ring = []  # [handle, referenced] pairs; head is the hand

    def _find(self, h):
        for pair in self.ring:
            if pair[0] == h:
                return pair
        raise KeyError(h)

    def insert(self, h, key):
        self.ring.append([h, False])

    def touch(self, h):
        self._find(h)[1] = True

    def remove(self, h):
        self.ring.remove(self._find(h))

    def evicted(self, h, key):
        self.remove(h)

    def victim(self):
        while True:
            if self.ring[0][1]:
                pair = self.ring.pop(0)
                pair[1] = False
                self.ring.append(pair)
            else:
                return self.ring[0][0]

    def handles(self):
        return [h for h, _ in self.ring]


class RefSlru:
    """Probation + protected segments; promotion on touch, demotion when
    protected exceeds 80% of the live count."""

    FRACTION = 0.8

    def __init__(self):
        self.probation = []
        self.protected = []

    def insert(self, h, key):
        self.probation.append(h)

    def touch(self, h):
        if h in self.protected:
            self.protected.remove(h)
            self.protected.append(h)
            return
        self.probation.remove(h)
        self.protected.append(h)
        cap = max(1, int(self.FRACTION
                         * (len(self.probation) + len(self.protected))))
        while len(self.protected) > cap:
            self.probation.append(self.protected.pop(0))

    def remove(self, h):
        if h in self.probation:
            self.probation.remove(h)
        else:
            self.protected.remove(h)

    def evicted(self, h, key):
        self.remove(h)

    def victim(self):
        return (self.probation or self.protected)[0]

    def handles(self):
        return self.probation + self.protected


class RefArc:
    """T1/T2 recency/frequency lists, B1/B2 key ghosts steering ``p``."""

    GHOST_FLOOR = 8

    def __init__(self):
        self.t1, self.t2 = [], []
        self.b1, self.b2 = [], []
        self.p = 0.0

    def _live(self):
        return len(self.t1) + len(self.t2)

    def insert(self, h, key):
        if key in self.b1:
            self.p = min(float(self._live() + 1),
                         self.p + max(1.0, len(self.b2)
                                      / max(1, len(self.b1))))
            self.b1.remove(key)
            self.t2.append(h)
        elif key in self.b2:
            self.p = max(0.0, self.p - max(1.0, len(self.b1)
                                           / max(1, len(self.b2))))
            self.b2.remove(key)
            self.t2.append(h)
        else:
            self.t1.append(h)

    def touch(self, h):
        if h in self.t2:
            self.t2.remove(h)
            self.t2.append(h)
        else:
            self.t1.remove(h)
            self.t2.append(h)

    def remove(self, h):
        (self.t1 if h in self.t1 else self.t2).remove(h)

    def evicted(self, h, key):
        ghost = self.b1 if h in self.t1 else self.b2
        self.remove(h)
        if key in ghost:
            ghost.remove(key)
        ghost.append(key)
        cap = max(self.GHOST_FLOOR, self._live())
        for g in (self.b1, self.b2):
            del g[:max(0, len(g) - cap)]

    def victim(self):
        if len(self.t1) > max(1.0, self.p):
            return self.t1[0]
        return (self.t2 or self.t1)[0]

    def handles(self):
        return self.t1 + self.t2


MODELS = {"lru": RefLru, "clock": RefClock, "slru": RefSlru, "arc": RefArc}

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
            # Ghost probes must agree (ARC's ghosts also steer p).
            before = kernel.counters["cache.test.ghost_hit"].value
            kernel.lookup_in({})(key)
            after = kernel.counters["cache.test.ghost_hit"].value
            if policy == "arc":
                assert (after - before == 1) == \
                    (key in ref.b1 or key in ref.b2)
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
