"""A rolling digest of the engine's dispatch stream.

Every callback the engine dispatches is one ``(when, qualname)`` pair,
and a trace session that asks for engine events
(``tracing(engine_events=True)``) records each as an ``engine.dispatch``
event — the engine needs no hook of its own.  The digest chains the
pairs in dispatch order, keeping the running value after every event,
so two runs that agree up to event *i* agree on prefix *i* and
:func:`first_difference` finds the first event where they part by
bisection.  Equal digests mean the same callbacks ran at the same
simulated instants in the same order: a stronger identity than equal
result files.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_left
from hashlib import blake2b
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import TraceBus, tracing

#: A callable without a ``__qualname__`` is traced by its ``repr``,
#: whose address differs from run to run.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")
_pack_when = struct.Struct("<d").pack


def dispatch_stream(buses: Iterable[TraceBus]) -> List[Tuple[float, str]]:
    """``(when, qualname)`` of every dispatch recorded on ``buses``, bus
    by bus in their order."""
    return [(event.ts, _ADDRESS.sub("", event.args["fn"]))
            for bus in buses for event in bus.events
            if event.name == "engine.dispatch"]


def rolling_digest(stream: Iterable[Tuple[float, str]]) -> List[bytes]:
    """The running digest after each event of ``stream``."""
    prefixes: List[bytes] = []
    digest = b""
    for when, fn in stream:
        digest = blake2b(digest + _pack_when(when) + fn.encode(),
                         digest_size=16).digest()
        prefixes.append(digest)
    return prefixes


def recorded(run: Callable[[], object]) -> List[bytes]:
    """Call ``run()`` under an engine-event trace session; the rolling
    digest of everything it dispatched."""
    with tracing(engine_events=True) as session:
        run()
    return rolling_digest(dispatch_stream(session.buses))


def first_difference(a: Sequence[bytes], b: Sequence[bytes]
                     ) -> Optional[int]:
    """Index of the first event at which two rolling digests differ
    (the shorter stream's length if one is a prefix of the other), or
    ``None`` when they are equal.  Prefixes that differ once differ
    from then on, so a bisection finds it."""
    if len(a) == len(b) and (not a or a[-1] == b[-1]):
        return None
    return bisect_left(range(min(len(a), len(b))), True,
                       key=lambda i: a[i] != b[i])
