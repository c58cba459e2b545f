"""Structured event tracing: the :class:`TraceBus` and its exporters.

The bus is the observability seam every subsystem emits into: the sim
engine's event dispatch, the network stack's packet paths, the NCache
module (hits / misses / remaps / evictions), the file-system buffer
cache, and the NFS/kHTTPd request handlers.  Design rules:

* **zero overhead when disabled** — every emit site guards on
  ``bus.enabled`` (a plain attribute), and :meth:`TraceBus.emit` itself
  returns before touching the clock or building an event, so a disabled
  bus costs one attribute load and a branch;
* **deterministic** — events are appended in execution order; replaying
  the same simulation yields byte-identical traces;
* **schema'd** — every event has ``name`` (``subsystem.verb``), ``cat``
  (subsystem), ``ph`` (Chrome phase: ``i`` instant, ``X`` complete),
  ``ts`` (simulated seconds), optional ``dur``, and free-form ``args``.

The exporters write Chrome-trace-format JSON (loadable in
``chrome://tracing`` or https://ui.perfetto.dev) and plain JSONL (one
event object per line).  They read *serialized* buses
(:meth:`TraceBus.serialize`: plain data, which is also what crosses the
experiment process pool), so a live session and a pooled sweep share one
writer; a bus's Chrome pid is its position in the list written.
A :class:`TraceSession` collects the buses of every simulator built while
it is active, so one CLI flag can trace a whole experiment sweep: each
testbed becomes a Chrome "process", each host a "thread".
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

#: Chrome trace phases used by this library.
PHASE_INSTANT = "i"
PHASE_COMPLETE = "X"

_KNOWN_PHASES = (PHASE_INSTANT, PHASE_COMPLETE)


class TraceEvent:
    """One structured trace event (timestamps in simulated seconds)."""

    __slots__ = ("name", "cat", "ph", "ts", "dur", "tid", "args")

    def __init__(self, name: str, cat: str, ph: str, ts: float,
                 dur: Optional[float], tid: int,
                 args: Dict[str, Any]) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args

    def __repr__(self) -> str:
        return (f"TraceEvent({self.name!r}, t={self.ts:.9f}, "
                f"ph={self.ph!r}, args={self.args!r})")


class TraceBus:
    """Per-simulator event sink, disabled (and nearly free) by default.

    ``clock`` is anything with a ``now`` attribute in simulated seconds —
    in practice the :class:`~repro.sim.engine.Simulator` that owns the
    bus.  ``engine_events`` additionally traces every engine dispatch
    (very high volume; off unless explicitly requested).
    """

    __slots__ = ("clock", "process_name", "enabled", "engine_events",
                 "events", "_tids")

    def __init__(self, clock: Any = None, process_name: str = "sim") -> None:
        self.clock = clock
        self.process_name = process_name
        self.enabled = False
        self.engine_events = False
        self.events: List[TraceEvent] = []
        self._tids: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    def enable(self, engine_events: bool = False) -> "TraceBus":
        """Start recording; returns self for chaining."""
        self.enabled = True
        self.engine_events = engine_events
        return self

    def disable(self) -> None:
        """Stop recording (events already captured are kept)."""
        self.enabled = False
        self.engine_events = False

    def clear(self) -> None:
        """Drop all captured events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    # -- emission ------------------------------------------------------------

    def emit(self, name: str, cat: str = "sim", ph: str = PHASE_INSTANT,
             dur: Optional[float] = None, tid: int = 0,
             t: Optional[float] = None, **args: Any) -> None:
        """Record one event; a no-op (before any work) when disabled."""
        if not self.enabled:
            return
        if t is None:
            t = self.clock.now if self.clock is not None else 0.0
        self.events.append(TraceEvent(name, cat, ph, t, dur, tid, args))

    def complete(self, name: str, start_t: float, cat: str = "sim",
                 tid: int = 0, **args: Any) -> None:
        """Record a span that started at ``start_t`` and ends now."""
        if not self.enabled:
            return
        now = self.clock.now if self.clock is not None else start_t
        self.events.append(TraceEvent(name, cat, PHASE_COMPLETE, start_t,
                                      now - start_t, tid, args))

    def tid_for(self, thread_name: str) -> int:
        """Stable small integer for a logical thread (e.g. a host)."""
        tid = self._tids.get(thread_name)
        if tid is None:
            tid = self._tids[thread_name] = len(self._tids) + 1
        return tid

    # -- export --------------------------------------------------------------

    def serialize(self) -> Dict[str, Any]:
        """This bus as plain data: cheap to pickle across the process
        pool, and the form the exporters below read."""
        return {
            "process_name": self.process_name,
            "tids": dict(self._tids),
            "events": [(ev.name, ev.cat, ev.ph, ev.ts, ev.dur, ev.tid, ev.args)
                       for ev in self.events],
        }


def chrome_events(buses: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Chrome-trace event objects (timestamps in microseconds) plus
    process/thread metadata; pids are positions in ``buses``."""
    out: List[Dict[str, Any]] = []
    for pid, bus in enumerate(buses, start=1):
        out.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": bus["process_name"]}})
        for tname, tid in sorted(bus["tids"].items(), key=lambda kv: kv[1]):
            out.append({"name": "thread_name", "ph": "M", "pid": pid,
                        "tid": tid, "args": {"name": tname}})
        for name, cat, ph, ts, dur, tid, args in bus["events"]:
            ev: Dict[str, Any] = {"name": name, "cat": cat, "ph": ph,
                                  "ts": ts * 1e6, "pid": pid, "tid": tid}
            if dur is not None:
                ev["dur"] = dur * 1e6
            if args:
                ev["args"] = args
            out.append(ev)
    return out


def jsonl_events(buses: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Plain JSON event objects (timestamps in simulated seconds)."""
    out: List[Dict[str, Any]] = []
    for pid, bus in enumerate(buses, start=1):
        for name, cat, ph, ts, dur, tid, args in bus["events"]:
            ev: Dict[str, Any] = {"name": name, "cat": cat, "ph": ph,
                                  "t": ts, "pid": pid, "tid": tid}
            if dur is not None:
                ev["dur"] = dur
            if args:
                ev["args"] = args
            out.append(ev)
    return out


def write_chrome_trace(path: Any, buses: Sequence[Dict[str, Any]]) -> None:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
    document = {"traceEvents": chrome_events(buses), "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(document, fh)


def write_jsonl_trace(path: Any, buses: Sequence[Dict[str, Any]]) -> None:
    """Write one JSON event object per line (grep/jq-friendly)."""
    with open(path, "w") as fh:
        for obj in jsonl_events(buses):
            fh.write(json.dumps(obj))
            fh.write("\n")


class TraceSession:
    """Collects every :class:`TraceBus` created while the session is active.

    :class:`~repro.sim.engine.Simulator` registers its bus with the
    active session at construction, so tracing a whole experiment sweep
    is one ``with tracing():`` block (or the ``--trace-out`` CLI flag)
    with no per-testbed plumbing.
    """

    def __init__(self, engine_events: bool = False) -> None:
        self.engine_events = engine_events
        self.buses: List[TraceBus] = []

    def adopt(self, bus: TraceBus) -> None:
        """Enable ``bus``; its Chrome pid is its position among ours."""
        bus.enable(engine_events=self.engine_events)
        self.buses.append(bus)

    def n_events(self) -> int:
        """Total events captured across all adopted buses."""
        return sum(len(bus) for bus in self.buses)

    def serialize(self) -> List[Dict[str, Any]]:
        """Every adopted bus as plain data, in adoption order."""
        return [bus.serialize() for bus in self.buses]

    def write_chrome(self, path: Any) -> None:
        """Export every adopted bus into one Chrome-trace JSON file."""
        write_chrome_trace(path, self.serialize())

    def write_jsonl(self, path: Any) -> None:
        """Export every adopted bus as JSONL."""
        write_jsonl_trace(path, self.serialize())


_active_session: Optional[TraceSession] = None


def active_session() -> Optional[TraceSession]:
    """The session new simulators should register with, if any."""
    return _active_session


def start_tracing(engine_events: bool = False) -> TraceSession:
    """Begin a global trace session (idempotent per start/stop pair)."""
    global _active_session
    if _active_session is not None:
        raise RuntimeError("a trace session is already active")
    _active_session = TraceSession(engine_events=engine_events)
    return _active_session


def stop_tracing() -> Optional[TraceSession]:
    """End the active session and return it (None if none active)."""
    global _active_session
    session, _active_session = _active_session, None
    return session


@contextmanager
def tracing(engine_events: bool = False) -> Iterator[TraceSession]:
    """``with tracing() as session:`` — scoped global trace session."""
    session = start_tracing(engine_events=engine_events)
    try:
        yield session
    finally:
        stop_tracing()
