"""Consistent-hash ring for request routing and block-group placement.

Standard construction: every node contributes ``vnodes`` points on a
2^64 ring (:func:`~repro.sim.rng.stable_hash64`, a SHA-256 prefix, of a
salted label — deterministic across processes, unlike Python's
randomized ``hash``); a key routes to the first point clockwise from its
own hash.  ``owners(key, n)`` keeps walking to the next *distinct*
nodes, which is how a replicated block group names its ``n`` owner
servers.  Adding or removing one node moves only ~1/N of the keyspace,
the property the fleet's cache placement relies on.

Membership is mutable: :meth:`add_node` / :meth:`remove_node` insert or
withdraw one node's points in place.  A node's points depend only on
``(seed, node, vnodes)``, so any add/remove sequence lands on exactly
the ring a fresh construction over the same member set would build —
removing a node and adding it back restores the prior assignment
bit-for-bit (the rejoin property the churn tests lock down).
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

from ..sim.rng import stable_hash64


class HashRing:
    """Maps hashable keys to one or more of a mutable set of nodes."""

    def __init__(self, nodes: Sequence[int], vnodes: int = 64,
                 seed: int = 0) -> None:
        if not nodes:
            raise ValueError("ring needs at least one node")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.nodes = list(nodes)
        self.vnodes = vnodes
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for node in self.nodes:
            points.extend(self._points_for(node))
        points.sort()
        self._points = points
        self._reindex()

    def _points_for(self, node: int) -> List[Tuple[int, int]]:
        return [(stable_hash64(f"{self.seed}/n{node}/v{v}"), node)
                for v in range(self.vnodes)]

    def _reindex(self) -> None:
        self._hashes = [h for h, _ in self._points]
        self._owners = [n for _, n in self._points]

    # -- membership ----------------------------------------------------------

    def add_node(self, node: int) -> None:
        """Insert ``node``'s points; identical to a fresh construction
        over the resulting member set."""
        if node in self.nodes:
            raise ValueError(f"node {node} already on the ring")
        self.nodes.append(node)
        for point in self._points_for(node):
            bisect.insort(self._points, point)
        self._reindex()

    def remove_node(self, node: int) -> None:
        """Withdraw ``node``'s points from the ring."""
        if node not in self.nodes:
            raise ValueError(f"node {node} not on the ring")
        if len(self.nodes) == 1:
            raise ValueError("cannot remove the last node")
        self.nodes.remove(node)
        self._points = [p for p in self._points if p[1] != node]
        self._reindex()

    def owners(self, key: object, count: int = 1) -> List[int]:
        """The first ``count`` distinct nodes clockwise from ``key``."""
        if not 1 <= count <= len(self.nodes):
            raise ValueError(
                f"count must be in [1, {len(self.nodes)}], got {count}")
        start = bisect.bisect_right(self._hashes,
                                    stable_hash64(f"{self.seed}/k{key}"))
        found: List[int] = []
        for i in range(len(self._owners)):
            node = self._owners[(start + i) % len(self._owners)]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return found

    def owner(self, key: object) -> int:
        return self.owners(key, 1)[0]
