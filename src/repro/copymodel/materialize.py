"""The byte-materialization chokepoint for the extent data plane.

Steady-state simulation moves extent descriptors, never bytes; the only
places bytes legitimately exist are *verification points* — golden-number
checks, sanitizer byte-exactness assertions, trace payload dumps, and
client-side response verification.  All of them call :func:`materialize`
so that (a) the copy-discipline tree test can enforce "no
materialization outside copymodel and declared metadata paths", and
(b) every materialization is observable as a ``buffer.materialize``
trace event when tracing is on.
"""

from __future__ import annotations

from typing import Any, Optional

#: Payload-like: anything with ``length`` and ``materialize()``.  Typed
#: loosely to keep copymodel free of a net dependency cycle.


def materialize(payload: Any, *, why: str, bus: Optional[Any] = None) -> bytes:
    """Materialize ``payload`` to real bytes at a named verification point.

    ``why`` says which verification point this is (``"golden"``,
    ``"client_verify"``, ``"trace_dump"``, ...) and is carried on the
    emitted ``buffer.materialize`` trace event.  ``bus`` is an optional
    :class:`~repro.obs.trace.TraceBus`; when absent or disabled the call
    is just the materialization.
    """
    data = payload.materialize()
    if bus is not None and bus.enabled:
        bus.emit("buffer.materialize", cat="buffer", why=why,
                 nbytes=len(data))
    return data
