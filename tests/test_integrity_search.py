"""The integrity search in tier-1: the admissible rule, a quick search,
one planted cell per lost-write window the search found, and one per
stall it found.

The planted ``sfs`` cells run ``sfs_cell``'s configuration with FIFO
ties, the order the windows were found in.  Each planted window cell
fails with its window's mutant applied (``tests/mutants``): a READ
returns a block's pre-WRITE bytes, or a key dangles.  Each planted
liveness cell fails when a fill pins nothing it holds
(``fill-unpinned``).
"""

from __future__ import annotations

import subprocess

import pytest

from content_oracle import ContentMismatch, ContentOracle
from dispatch_digest import recorded
from integrity_search import (MODES, MUTANT_DIR, MUTANTS, ORDERS, Cell, run,
                              victim_order)
from repro.cache import CacheKernel
from repro.experiments.parallel import RunSpec
from repro.net.buffer import VirtualPayload

#: SFS seeds of the quick search (the wide one runs 64).
QUICK_SEEDS = (1, 2, 3)

PLANTED = {
    # A fill issued before a WRITE inserted the disk's older bytes over
    # the newer dirty page (mutant fill-overwrites-resident).
    Cell("sfs", "original", "lru", 3, shuffle=False): "window 1",
    # A dirty victim waiting for its writeback was in neither cache: a
    # READ filled the block from the disk's old bytes (mutant
    # evict-dirty-before-writeback).
    Cell("sfs", "original", "lru", 1, shuffle=False): "window 2",
    # NCache evicted a dirty FHO chunk while an older LBN chunk of the
    # block stayed cached; the FS page and an L2 hit served the latter
    # (mutant chunk-writeback-no-remap).
    Cell("sfs", "ncache", "mru", 5, shuffle=False): "window 3",
    # A Data-In for a block replaced the chunk a flush had remapped onto
    # its LBN while the read was in flight.  Found by the wide search
    # with windows 1-3 closed; at the commit before the fixes window 1
    # shifts this cell's schedule and it passes.
    Cell("ops", "ncache", "lru", 11): "window 4",
}


#: Cells that stall, or dangle a key, unless a fill holds what it has
#: until its reply holds it.
LIVENESS = {
    # The freshest chunks go first: a 4-block fill's chunks pushed each
    # other out, and the READ refetched until the client gave up.
    Cell("pressure", "ncache", "mru", 1): "refetch livelock",
    # Refetching fills held page locks on all 16 FS pages.
    Cell("lossy", "ncache", "shuffled", 5): "every FS page locked",
    # Two more cells that fail when a fill pins nothing it holds.
    Cell("pressure", "ncache", "shuffled", 1): "fill holds its chunks",
    Cell("sfs", "ncache", "mru", 1, shuffle=False): "fill holds its chunks",
}


def quick_cells():
    for mode in MODES:
        for order in ["lru"] + sorted(ORDERS):
            for seed in QUICK_SEEDS:
                yield Cell("sfs", mode, order, seed)
    yield Cell("lossy", "ncache", "shuffled", 1)
    for order in sorted(ORDERS):
        yield Cell("warm", "ncache", order, 1)
    yield Cell("http", "ncache", "lru", 1)
    yield Cell("fleet", "ncache", "lru", 1)


#: The quick search, run on the session's cell pool; each cell arms its
#: own sanitizer in ``run``.
QUICK = pytest.mark.cells(*(
    RunSpec(run, (cell,), f"integrity/{cell}", capture_reports=False)
    for cell in quick_cells()))


@pytest.fixture(scope="module")
def quick(cell_result):
    return [cell_result(spec.label).value for spec in QUICK.args]


@QUICK
def test_quick_search_finds_no_lost_write(quick):
    assert [str(o) for o in quick if o.verdict != "pass"] == []
    assert sum(o.reads for o in quick) > 3000


@pytest.mark.cells(*(RunSpec(run, (cell,), f"integrity/{cell}",
                             capture_reports=False) for cell in LIVENESS))
@pytest.mark.parametrize("cell", list(LIVENESS), ids=str)
def test_planted_stall_makes_progress(cell, cell_result):
    outcome = cell_result(f"integrity/{cell}").value
    assert outcome.verdict == "pass", f"{LIVENESS[cell]}: {outcome}"


@QUICK
def test_ncache_cells_substitute_their_replies(quick):
    """A dangling key raises at the TX hook, so a clean NCACHE cell is
    the no-junk check; it must have substituted real traffic."""
    for outcome in quick:
        if outcome.cell.kind == "sfs" and outcome.cell.mode == "ncache" \
                and outcome.verdict == "pass":
            assert outcome.counters["ncache.substituted_replies"] > 100


@QUICK
def test_concurrent_writes_leave_more_than_one_right_answer(quick):
    """Where a flat reference file would false-alarm."""
    assert sum(o.ambiguous for o in quick if o.cell.kind == "sfs") > 0


@pytest.mark.parametrize("cell", list(PLANTED), ids=str)
def test_planted_window_is_closed(cell):
    outcome = run(cell)
    assert outcome.verdict == "pass", f"{PLANTED[cell]}: {outcome}"


def test_shuffled_ties_change_the_dispatch_order():
    fifo = recorded(lambda: run(Cell("ops", "ncache", "lru", 1,
                                     shuffle=False)))
    shuffled = recorded(lambda: run(Cell("ops", "ncache", "lru", 1)))
    assert fifo != shuffled


class _Page:
    dirty = pinned = False


def _evictions(order, clean_first):
    """Which of eight unit entries, filled in order, a kernel evicts
    first to make room for four more; the fifth one is pinned."""
    with victim_order(order, seed=1):
        kernel = CacheKernel("k", 8, clean_first=clean_first)
        pages = [kernel.insert(i, _Page(), 1) for i in range(8)]
        pages[4].pinned = True
        evicted = []
        kernel.make_room(4, on_evict=evicted.append)
    return [pages.index(page) for page in evicted]


@pytest.mark.parametrize("clean_first", [False, True])
def test_each_victim_order_perturbs_eviction(clean_first):
    """The orders reach both caches' kernels through the one hook,
    pinned entries stay exempt, and the patch ends with the cell."""
    got = {order: _evictions(order, clean_first)
           for order in ["lru"] + sorted(ORDERS)}
    assert got["lru"] == [0, 1, 2, 3]
    assert got["mru"] == [7, 6, 5, 3]
    assert sorted(got["shuffled"]) != got["shuffled"]
    assert all(4 not in evicted for evicted in got.values())
    assert _evictions("lru", clean_first) == got["lru"]


def test_every_mutant_patch_still_applies():
    """A refactor that moves a mutant's context fails here, not only in
    the mutant matrix; regenerate the patch with the same mutation."""
    assert sorted(p.stem for p in MUTANT_DIR.glob("*.patch")) == \
        sorted(MUTANTS)
    root = MUTANT_DIR.parents[1]
    for name in MUTANTS:
        check = subprocess.run(
            ["git", "apply", "--check", str(MUTANT_DIR / f"{name}.patch")],
            cwd=root, capture_output=True, text=True)
        assert check.returncode == 0, f"{name}: {check.stderr}"


class _Clock:
    now = 0.0


class _Image:
    """One file whose block ``b`` sits at LBN ``100 + b``."""

    block_size = 4096

    class _Inode:
        def block_lbn(self, b):
            return 100 + b

    def inode(self, ino):
        inode = self._Inode()
        inode.size = 16 * 4096
        return inode

    def file_payload(self, inode, offset, length):
        return VirtualPayload(0, offset, length)


class TestAdmissibleRule:
    """The rule on one block, through the calls the wrappers make."""

    clock, image = _Clock(), _Image()

    def setup_method(self):
        self.oracle = ContentOracle()

    def write(self, tag):
        return self.oracle.issue_write(self.clock, self.image, 1, 0,
                                       VirtualPayload(tag, 0, 4096))

    def ack(self, pending):
        self.oracle.ack(self.clock, pending, self.image, 1, 0)

    def read(self):
        return self.oracle.issue_read(self.image, 1, 0, 4096)

    def reply(self, issued, tag, nbytes=4096):
        got = VirtualPayload(tag, 0, nbytes).materialize()
        self.oracle.check(self.clock, self.image, 1, issued, got)

    def test_a_write_acked_before_the_read_overwrites_older_ones(self):
        self.ack(self.write(1))
        self.ack(self.write(2))
        issued = self.read()
        self.reply(issued, 2)
        with pytest.raises(ContentMismatch, match="WRITE issued"):
            self.reply(issued, 1)

    def test_writes_in_flight_are_all_admissible(self):
        self.write(1), self.write(2)
        issued = self.read()
        for tag in (0, 1, 2):  # 0: the file's initial bytes
            self.reply(issued, tag)
        assert self.oracle.ambiguous == 3

    def test_a_write_acked_after_the_read_was_issued_is_concurrent(self):
        pending = self.write(1)
        issued = self.read()
        self.ack(pending)
        self.reply(issued, 0)
        self.reply(issued, 1)

    def test_the_initial_bytes_go_once_a_write_is_acked(self):
        self.ack(self.write(1))
        with pytest.raises(ContentMismatch, match="initial bytes"):
            self.reply(self.read(), 0)

    def test_a_short_reply_is_a_mismatch(self):
        with pytest.raises(ContentMismatch, match="0 bytes of 4096"):
            self.reply(self.read(), 0, nbytes=0)
