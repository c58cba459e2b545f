"""One accounted lookup: cache traffic is counted in ``cache.kernel`` only.

``lookup`` is traffic (a hit counts and promotes, a miss counts and
probes the ghost list); ``peek`` is bookkeeping and touches nothing;
the ``cache.<name>.*`` family is the only cache counter.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _walk_src():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            yield path.relative_to(SRC).as_posix(), node


class TestTreeWalk:
    def test_hits_and_misses_are_counted_in_the_kernel_only(self):
        counted = set()
        for where, node in _walk_src():
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Attribute)
                    and node.target.attr == "_total"
                    and any(word in _terminal_name(node.target.value)
                            for word in ("hit", "miss"))):
                counted.add(where)
        assert counted == {"cache/kernel.py"}

    def test_the_deleted_names_stay_deleted(self):
        offenders = []
        for where, node in _walk_src():
            names = [_terminal_name(node)]
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ClassDef):
                names = [node.name]
            if "LatencyStats" in names:
                offenders.append((where, node.lineno, "LatencyStats"))
            # ``Datagram.meta`` (and ``NetBuffer.meta`` before it) is
            # gone: what rides a datagram is a declared field.
            if isinstance(node, ast.Attribute) and node.attr == "meta":
                offenders.append((where, node.lineno, ".meta"))
        assert offenders == []
