"""The paper's store as one executable spec, run against the real one.

:class:`PaperStore` is §3.4's store — an LBN and an FHO index over one
LRU list of fixed-size chunks, FHO→LBN remap overwriting a stale LBN
entry, a dirty victim written back (remapped) before it is reclaimed —
plus what the real store does beyond the paper (DESIGN.md §6).
:class:`StoreMachine` runs it beside ``NCacheStore``, its kernel and
``NCacheModule._insert_chunk`` and compares the two after every rule.
A warm load is per-block entries here and one warm run there.
"""

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.cache import CacheStallError
from repro.core import Chunk, FhoKey, KeyedPayload, NCacheModule, NCacheStore
from repro.net import Host
from repro.net.buffer import (BufferFlavor, BytesPayload, ExtentPayload,
                              SegmentShape)
from repro.sim import Simulator
from repro.sim.engine import SimulationError
from repro.sim.process import start


class Entry:
    """One cached chunk; ``heir`` replaced it, pinned, under its key;
    ``warm`` while it is a warm-loaded block no lookup has touched."""

    def __init__(self, key, data, dirty=False, hint=None, warm=False):
        self.key, self.data, self.dirty, self.hint = key, data, dirty, hint
        self.pins, self.heir, self.warm = 0, None, warm


class PaperStore:
    """§3.4's store, counted in chunks (every chunk has one footprint)."""

    def __init__(self, capacity):
        self.capacity, self.lbn, self.fho = capacity, {}, {}
        self.order = []  # cold -> hot
        self.reclaimed = []  # (key, bytes, key still resolves) per leaver
        self.disk = {}  # lbn -> the bytes a writeback put there

    def index(self, key):
        return self.fho if type(key) is FhoKey else self.lbn

    def lookup(self, key):  # a hit becomes the hottest chunk
        entry = self.index(key).get(key)
        if entry is not None:
            self.order.remove(entry)
            self.order.append(entry)
            entry.warm = False
        return entry

    def resolve(self, fho, lbn):  # FHO first: written data is newer
        return self.lookup(fho) or self.lookup(lbn)

    def insert(self, entry):
        """Make room — the victim is the coldest unpinned chunk, dirty
        or not, and a dirty one is written back first; every chunk
        pinned is a stall — then install ``entry``, unless it is a
        Data-In whose block is resident: its bytes are no newer."""
        while len(self.order) >= self.capacity:
            victim = next((e for e in self.order if not e.pins), None)
            if victim is None:
                raise CacheStallError("every chunk is pinned")
            if victim.dirty:
                self.disk[victim.hint] = victim.data
                self.remap(victim.key, victim.hint)
            else:
                self.reclaim(victim)
        index = self.index(entry.key)
        old = index.get(entry.key)
        if old is not None and index is self.lbn:
            return old
        index[entry.key] = entry
        self.order.append(entry)
        if old is not None:
            self._replace(old, entry)
        return entry

    def load(self, entries):  # warm start: clean blocks, coldest first
        for entry in entries:
            self.insert(entry)

    def remap(self, fho, lbn):  # flush: FHO chunk to clean LBN chunk
        entry = self.fho.pop(fho, None)
        if entry is not None:
            stale = self.lbn.get(lbn)
            entry.key, entry.dirty = lbn, False
            self.lbn[lbn] = entry
            if stale is not None:
                self._replace(stale, entry)
        return entry

    def unpin(self, entry):
        while entry.heir is not None:
            entry = entry.heir
        entry.pins -= 1

    def cold_restart(self):  # dirty bytes are lost; pinned chunks stay
        for entry in self.order:
            entry.dirty = False
        for entry in [e for e in self.order if not e.pins]:
            self.reclaim(entry)

    def _replace(self, old, new):  # new took old's key, so its pins too
        if old.pins:
            new.pins, old.pins, old.heir = new.pins + old.pins, 0, new
        self.reclaim(old)

    def reclaim(self, entry):
        self.order.remove(entry)
        index = self.index(entry.key)
        if index.get(entry.key) is entry:
            del index[entry.key]
        self.reclaimed.append((entry.key, entry.data, entry.key in index))


BLOCK = 64  # bytes per chunk, in one buffer
FOOTPRINT = BLOCK + 160 + 64
CAPACITY = 3
#: Writebacks take simulated time, so an insert looping on a victim its
#: writeback left dirty is still running after this long.
INSERT_BOUND_S = 1.0
KEYS = [*range(5), *(FhoKey(n, 1, 0) for n in range(5))]
LBNS, FHOS = st.sampled_from(KEYS[:5]), st.sampled_from(KEYS[5:])
#: A warm block: one buffer, checksum known, as ``Chunk.from_payload``.
WARM_SHAPE = SegmentShape.uniform(BLOCK, BLOCK, True, BufferFlavor.SK_BUFF)
#: Warm loads: ``(first LBN, blocks, blocks of the file before it)`` —
#: a run may start mid-file, past the hot blocks built as chunks.
FILE_RUNS = st.lists(st.tuples(LBNS, st.integers(1, 3), st.integers(0, 2)),
                     min_size=1, max_size=3)


def _bytes(chunk):
    return None if chunk is None else chunk.payload().materialize()


def _data(entry):
    return None if entry is None else entry.data


class StoreMachine(RuleBasedStateMachine):
    """The real store and :class:`PaperStore`, op for op.  A key's type
    names its index, so ``store.peek(key, key)`` finds either kind."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.store = NCacheStore(CAPACITY * FOOTPRINT, BLOCK)
        self.module = NCacheModule(Host(self.sim, "server"), self.store,
                                   writeback=self._write)
        self.model = PaperStore(CAPACITY)
        self.reclaimed, self.disk, self.held, self.version = [], {}, [], 0
        self.store.reclaim_listeners.append(lambda c: self.reclaimed.append(
            (c.key, _bytes(c), self.store.peek(c.key, c.key) is not None)))

    def _write(self, lbn, payload):
        yield self.sim.timeout(1e-3)
        self.disk[lbn] = payload.materialize()

    def warm(self, key):
        """Is ``key`` a warm-loaded block nothing has touched yet?"""
        entry = self.model.index(key).get(key)
        return entry is not None and entry.warm

    def _insert(self, key, dirty=False, hint=None):
        self.version += 1
        data = self.version.to_bytes(4, "big") * (BLOCK // 4)
        proc = start(self.sim, self.module._insert_chunk(Chunk.from_payload(
            key, BytesPayload(data), BLOCK, dirty=dirty, lbn_hint=hint)))
        try:
            want = self.model.insert(Entry(key, data, dirty, hint))
        except CacheStallError:
            with pytest.raises(CacheStallError):
                self.sim.run(until=self.sim.now + INSERT_BOUND_S)
            return
        self.sim.run(until=self.sim.now + INSERT_BOUND_S)
        assert proc.triggered, "insert still running: victim left dirty"
        assert _bytes(proc.value) == want.data

    @rule(lbn=LBNS)
    def data_in(self, lbn):
        if self.warm(lbn):  # the read's L2 lookup came first and hit
            self.lookup(lbn)
        self._insert(lbn)

    @rule(fho=FHOS, hint=LBNS)
    def nfs_write(self, fho, hint):
        self._insert(fho, dirty=True, hint=hint)

    @rule(key=st.sampled_from(KEYS))
    def lookup(self, key):
        lookup = self.store.lookup_fho if type(key) is FhoKey \
            else self.store.lookup_lbn
        assert _bytes(lookup(key)) == _data(self.model.lookup(key))

    @rule(fho=FHOS, lbn=LBNS)
    def resolve(self, fho, lbn):
        want = self.model.resolve(fho, lbn)
        assert _bytes(self.store.resolve(fho, lbn)) == _data(want)

    @rule(fho=FHOS, lbn=LBNS)
    def remap(self, fho, lbn):
        want = self.model.remap(fho, lbn)
        assert _bytes(self.store.remap(fho, lbn)) == _data(want)

    @precondition(lambda self: not any(e.warm for e in self.model.order))
    @rule(runs=FILE_RUNS)
    def warm_load(self, runs):
        """``warm_caches``' load into an empty or partly filled store:
        file runs over free LBNs, when no victim it needs is dirty and
        enough are unpinned (warm start raises otherwise)."""
        files, taken = [], set(self.model.lbn)
        for first, n, skip in runs:
            lbns = set(range(first, min(first + n, 5)))
            if not lbns & taken:
                files.append((first, len(lbns), 0x3A3 + first, first - skip))
                taken |= lbns
        entries = [Entry(first + b, ExtentPayload(
            tag, (first + b - origin) * BLOCK, BLOCK).materialize(), warm=True)
            for first, n, tag, origin in files for b in range(n - 1, -1, -1)]
        unpinned = [e for e in self.model.order if not e.pins]
        need = len(self.model.order) + len(entries) - CAPACITY
        if not entries or need > len(unpinned) + len(entries) - 1 \
                or any(e.dirty for e in unpinned[:need]):
            return
        self.store.load_run(files, WARM_SHAPE, FOOTPRINT)
        self.model.load(entries)

    @rule(key=st.sampled_from(KEYS))
    def pin(self, key):  # a reply leaves the FS cache with a receipt
        if self.warm(key):
            return  # no FS page holds the key of an untouched block
        fho = type(key) is FhoKey
        held = self.module.pin_keys(KeyedPayload(
            BLOCK, lbn_key=None if fho else key, fho_key=key if fho else None))
        entry = self.model.index(key).get(key)
        assert (held is None) == (entry is None)
        if entry is not None:
            entry.pins += 1
            self.held.append((held, entry))

    @precondition(lambda self: self.held)
    @rule(i=st.integers(0, 2 * CAPACITY))
    def unpin(self, i):  # ... and is substituted
        held, entry = self.held.pop(i % len(self.held))
        self.module.unpin_keys(held)
        self.model.unpin(entry)

    @rule(key=st.sampled_from(KEYS))
    def drop(self, key):
        if key in self.model.index(key) and not self.warm(key):
            self.model.reclaim(self.model.index(key)[key])
            self.store.drop(self.store.peek(key, key))

    @rule()
    def cold_restart(self):
        self.store.cold_restart()
        self.model.cold_restart()

    @invariant()
    def agrees(self):
        store, model = self.store, self.model
        assert [(c.key, _bytes(c), c.dirty, c.pins) for c in store.chunks()] \
            == [(e.key, e.data, e.dirty, e.pins) for e in model.order]
        for key in KEYS:
            if self.warm(key):  # nothing holds its key: reading it raises
                with pytest.raises(SimulationError):
                    store.peek(key, key)
            else:
                assert _bytes(store.peek(key, key)) \
                    == _data(model.index(key).get(key))
        assert store.used_bytes == len(model.order) * FOOTPRINT
        assert (self.reclaimed, self.disk) == (model.reclaimed, model.disk)
