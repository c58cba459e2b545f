"""One accounted lookup: cache traffic is counted in ``cache.kernel`` only.

``lookup`` is traffic (a hit counts and promotes, a miss counts and
probes the ghost list); ``peek`` is bookkeeping and touches nothing;
the ``cache.<name>.*`` family is the only cache counter.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.cache import POLICIES
from repro.core import FhoKey, LbnKey
from repro.fs import BLOCK_SIZE, BufferCache
from repro.net.buffer import JunkPayload

from test_ncache_store import FOOTPRINT, chunk_for, store_of

SRC = Path(repro.__file__).parent


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@pytest.fixture(scope="module")
def src_nodes():
    """``(file, ast node)`` for every node of every module in src/repro."""
    return [(path.relative_to(SRC).as_posix(), node)
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))]


class TestTreeWalk:
    def test_hits_and_misses_are_counted_in_the_kernel_only(self, src_nodes):
        counted = set()
        for where, node in src_nodes:
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Attribute)
                    and node.target.attr == "_total"
                    and any(word in _terminal_name(node.target.value)
                            for word in ("hit", "miss"))):
                counted.add(where)
        assert counted == {"cache/kernel.py"}

    def test_the_deleted_names_stay_deleted(self, src_nodes):
        offenders = []
        for where, node in src_nodes:
            names = [_terminal_name(node)]
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ClassDef):
                names = [node.name]
            if "LatencyStats" in names:
                offenders.append((where, node.lineno, "LatencyStats"))
            # One lookup path: a caller asks ``lookup`` or ``peek``, it
            # does not pass a flag.
            if isinstance(node, ast.Call) and any(
                    kw.arg == "touch" for kw in node.keywords):
                offenders.append((where, node.lineno, "touch="))
            # ``Datagram.meta`` (and ``NetBuffer.meta`` before it) is
            # gone: what rides a datagram is a declared field.
            if isinstance(node, ast.Attribute) and node.attr == "meta":
                offenders.append((where, node.lineno, ".meta"))
        assert offenders == []


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
