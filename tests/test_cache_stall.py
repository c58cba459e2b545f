"""Eviction stall under memory pressure: trace event + graceful recovery.

Two concurrent readers on a buffer cache with exactly four page frames.
Each reader's request has a present/missing/present/missing block
pattern, so it page-pins its two resident blocks *before* yielding for
fill I/O.  Together the two readers pin all four frames; whichever
reader needs room first finds no evictable page, and the kernel must
emit ``bcache.evict_stalled`` and raise
:class:`~repro.cache.CacheStallError` rather than spin.  A reader that
backs off and retries after the other completes succeeds — the stall is
a recoverable overload signal, not a wedge.
"""

from repro.cache import CacheStallError
from repro.copymodel import CopyDiscipline
from repro.fs import BLOCK_SIZE, BufferCache, VFS
from repro.sim.process import start
from conftest import MiniStack, drive


class StallStack(MiniStack):
    """MiniStack with a tiny, trace-wired buffer cache."""

    N_FRAMES = 4

    def __init__(self, sim):
        super().__init__(sim, CopyDiscipline.PHYSICAL)
        sim.trace.enable()
        self.cache = BufferCache(self.N_FRAMES * BLOCK_SIZE,
                                 counters=self.server.counters,
                                 trace=sim.trace)
        self.vfs = VFS(self.server, self.image, self.cache, self.initiator,
                       CopyDiscipline.PHYSICAL)


def _make_stack(sim):
    stack = StallStack(sim)
    drive(sim, stack.initiator.connect(), "connect")
    return stack


def _prewarm(stack, inode, blocks):
    """Fault in single blocks so later reads see a P,M,P,M pattern."""
    def job():
        for b in blocks:
            yield from stack.vfs.read(inode, b * BLOCK_SIZE, BLOCK_SIZE)
    drive(stack.sim, job(), "prewarm")


def _resilient_reader(stack, inode, results, key, backoff_s=0.02):
    """Read the whole 4-block file; back off and retry on a stall."""
    stalls = 0
    while True:
        try:
            payload = yield from stack.vfs.read(inode, 0, 4 * BLOCK_SIZE)
        except CacheStallError:
            stalls += 1
            yield stack.sim.timeout(backoff_s)
            continue
        results[key] = (payload.materialize(), stalls)
        return


class TestEvictionStall:
    def test_stall_traced_and_recovered(self, sim):
        stack = _make_stack(sim)
        inode_a = stack.image.create_file("a", 4 * BLOCK_SIZE)
        inode_b = stack.image.create_file("b", 4 * BLOCK_SIZE)
        # Blocks 0 and 2 of each file resident; the cache is now full.
        _prewarm(stack, inode_a, (0, 2))
        _prewarm(stack, inode_b, (0, 2))
        assert len(stack.cache) == StallStack.N_FRAMES

        results = {}
        procs = [
            start(sim, _resilient_reader(stack, inode_a, results, "a"),
                  name="reader-a"),
            start(sim, _resilient_reader(stack, inode_b, results, "b"),
                  name="reader-b"),
        ]
        def join():
            for proc in procs:
                yield proc  # a failed reader raises here
        drive(sim, join(), "join")

        # Both readers completed with the right bytes despite the stall.
        expected_a = stack.image.file_payload(
            inode_a, 0, 4 * BLOCK_SIZE).materialize()
        expected_b = stack.image.file_payload(
            inode_b, 0, 4 * BLOCK_SIZE).materialize()
        assert results["a"][0] == expected_a
        assert results["b"][0] == expected_b

        # At least one reader hit the stall and retried its way out.
        total_stalls = results["a"][1] + results["b"][1]
        assert total_stalls >= 1
        stall_events = [ev for ev in sim.trace.events
                        if ev.name == "bcache.evict_stalled"]
        assert len(stall_events) == total_stalls
        assert stall_events[0].args["entries"] == StallStack.N_FRAMES

    def test_stall_unpins_before_raising(self, sim):
        """After a stall propagates, the failed reader holds no pins —
        the other reader can then evict its pages and make progress."""
        stack = _make_stack(sim)
        inode_a = stack.image.create_file("a", 4 * BLOCK_SIZE)
        inode_b = stack.image.create_file("b", 4 * BLOCK_SIZE)
        _prewarm(stack, inode_a, (0, 2))
        _prewarm(stack, inode_b, (0, 2))

        def bare_reader(inode):
            return (yield from stack.vfs.read(inode, 0, 4 * BLOCK_SIZE))

        pa = start(sim, bare_reader(inode_a), name="a")
        pb = start(sim, bare_reader(inode_b), name="b")

        def settle():  # join, so a crash is ours to inspect
            for proc in (pa, pb):
                try:
                    yield proc
                except CacheStallError:
                    pass
        drive(sim, settle(), "join")
        failed = [p for p in (pa, pb) if p.failed]
        assert len(failed) == 1
        assert isinstance(failed[0].value, CacheStallError)
        # Every page frame is unpinned again once the dust settles.
        for entry in stack.cache._entries.values():
            assert not entry.pinned
