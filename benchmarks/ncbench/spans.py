"""Host-time spans around layer boundaries, recorded from outside.

The traced run replaces the public entry points listed in
:mod:`ncbench.boundaries` with timing wrappers — class attributes for
methods, module globals for functions — before the testbed is built, so
objects that pre-bind methods at construction bind the wrapper.  No
source file of the simulator is edited.

A span is one timed interval of one wrapped function; its parent is the
enclosing span on the *host* call stack.  A layer's self time is the sum
of its spans' durations minus the part covered by their child spans.
Generator functions are wrapped by an iterator that times every
``next``/``send``/``throw`` separately, so a process suspended on an
event accrues nothing and ``yield from`` delegation keeps working.

The wrappers cost more than many of the functions they wrap, and that
cost would land on whichever layer makes the most wrapped calls.  So
every aggregate also counts its spans and its spans' direct children,
and :func:`fold_by_layer` takes a per-span wrapper cost off afterwards:
the part a wrapper spends inside its own timed interval comes off the
span's self time, the part outside it off the parent's, and the total
is booked to the ``bench`` layer — tracing overhead is the harness's.
The caller gets the cost from the run itself (traced minus untraced host
time over the same slices, per span) and :func:`inside_share` says how a
wrapper's cost splits.

Per-(layer, function) aggregates are always kept; full spans only while
:attr:`Tracer.recording` is on (the first ``record_ops`` operations).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: ``(calls, spans, self_ns, child spans)`` per (layer, function).
Snapshot = Dict[Tuple[str, str], Tuple[int, int, int, int]]

#: An open span's stack entry packs two running sums into one int, so
#: that closing a child costs its parent a single addition: the ns its
#: children covered (low bits) and how many children it had (high bits).
_ONE_CHILD = 1 << 44
_NS_MASK = _ONE_CHILD - 1


class Agg:
    """Running totals for one (layer, function) pair."""

    __slots__ = ("layer", "name", "generator", "calls", "resumes",
                 "self_ns", "packed")

    def __init__(self, layer: str, name: str) -> None:
        self.layer = layer
        self.name = name
        #: wraps a generator function: its spans are its resumptions
        #: (a plain function's are its calls).
        self.generator = False
        self.calls = 0
        self.resumes = 0
        #: sum of span durations, before children are taken off.
        self.self_ns = 0
        #: sum of the closed spans' stack entries (see ``_ONE_CHILD``).
        self.packed = 0


def request_id(args: tuple) -> Optional[int]:
    """The xid carried by a call's arguments, if any.

    Looks at the first few positional arguments for an RPC message
    (``.xid``) or a datagram holding one (``.message.xid``).
    """
    for arg in args[:4]:
        xid = getattr(arg, "xid", None)
        if xid is None:
            xid = getattr(getattr(arg, "message", None), "xid", None)
        if isinstance(xid, int):
            return xid
    return None


class Tracer:
    """Span stack, aggregates and (optionally) full span records."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 record_ops: int = 200) -> None:
        self.clock = clock
        self.aggs: Dict[Tuple[str, str], Agg] = {}
        #: one packed entry per open span, innermost last.
        self.stack: List[int] = []
        #: ``(agg, start, duration, depth, request)`` in exit order.
        self.spans: List[tuple] = []
        self.recording = False
        self.record_ops = record_ops
        self.ops = 0

    def agg(self, layer: str, name: str) -> Agg:
        key = (layer, name)
        found = self.aggs.get(key)
        if found is None:
            found = self.aggs[key] = Agg(layer, name)
        return found

    def start_recording(self) -> None:
        """Keep full spans from now until ``record_ops`` more ops."""
        self.ops = 0
        self.recording = True

    def note_op(self) -> None:
        """One workload operation completed."""
        self.ops += 1
        if self.ops >= self.record_ops:
            self.recording = False

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """A timing wrapper for ``fn`` (generator functions included)."""
        agg = self.agg(layer, name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            agg.generator = True

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                agg.calls += 1
                rid = request_id(args) if tracer.recording else None
                return _TracedGen(fn(*args, **kwargs), agg, tracer, rid)
        else:
            stack = self.stack
            clock = self.clock

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack.append(0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    agg.packed += stack.pop()
                    agg.self_ns += dt
                    agg.calls += 1
                    if stack:
                        stack[-1] += dt + _ONE_CHILD
                    if tracer.recording:
                        tracer.spans.append((agg, t0, dt, len(stack),
                                             request_id(args)))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        return {key: (a.calls, a.resumes if a.generator else a.calls,
                      a.self_ns - (a.packed & _NS_MASK), a.packed >> 44)
                for key, a in self.aggs.items()}

    def chrome_trace(self, meta: Optional[dict] = None) -> dict:
        """The recorded spans as a Chrome-trace (``chrome://tracing``,
        Perfetto) document; times in microseconds from the first span.

        Spans were appended as they closed, children before parents, so
        a span's parent is the next one recorded one level up.
        """
        base = min((s[1] for s in self.spans), default=0)
        events = []
        orphans: Dict[int, List[dict]] = {}
        for sid, (agg, t0, dur, depth, rid) in enumerate(self.spans, 1):
            event = {"name": agg.name, "cat": agg.layer, "ph": "X",
                     "pid": 1, "tid": 1, "ts": (t0 - base) / 1000.0,
                     "dur": dur / 1000.0,
                     "args": {"id": sid, "parent": 0, "request": rid}}
            for child in orphans.pop(depth + 1, ()):
                child["args"]["parent"] = sid
            orphans.setdefault(depth, []).append(event)
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ns",
                "otherData": meta or {}}


class _TracedGen:
    """Iterator standing in for a generator; every resumption is a span."""

    __slots__ = ("_gen", "_agg", "_tracer", "_rid", "__name__")

    def __init__(self, gen: Any, agg: Agg, tracer: Tracer,
                 rid: Optional[int]) -> None:
        self._gen = gen
        self._agg = agg
        self._tracer = tracer
        self._rid = rid
        self.__name__ = getattr(gen, "__name__", agg.name)

    def __iter__(self) -> "_TracedGen":
        return self

    def _resume(self, method: Callable, *args: Any) -> Any:
        tracer = self._tracer
        stack = tracer.stack
        clock = tracer.clock
        stack.append(0)
        t0 = clock()
        try:
            return method(*args)
        finally:
            dt = clock() - t0
            agg = self._agg
            agg.packed += stack.pop()
            agg.self_ns += dt
            agg.resumes += 1
            if stack:
                stack[-1] += dt + _ONE_CHILD
            if tracer.recording:
                tracer.spans.append((agg, t0, dt, len(stack), self._rid))

    def __next__(self) -> Any:
        return self._resume(self._gen.__next__)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._resume(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()


# ---------------------------------------------------------------------------
# self-time folding and the wrappers' own cost
# ---------------------------------------------------------------------------

def fold_by_layer(before: Snapshot, after: Snapshot,
                  cost_in: float = 0.0, cost_out: float = 0.0
                  ) -> Dict[str, Tuple[int, float]]:
    """``{layer: (calls, self_ns)}`` accumulated between two snapshots.

    ``cost_in``/``cost_out`` are what one wrapper spends inside and
    outside the interval it times: they come off each span's self time
    and off its parent's (never below zero: the cost is an average, and
    a function cannot have taken negative time), and what came off goes
    to ``bench``.
    """
    out: Dict[str, Tuple[int, float]] = {}
    overhead = 0.0
    for key, now in after.items():
        calls, spans, self_ns, children = (
            a - b for a, b in zip(now, before.get(key, (0, 0, 0, 0))))
        wrappers = min(self_ns, spans * cost_in + children * cost_out)
        overhead += wrappers
        c, s = out.get(key[0], (0, 0.0))
        out[key[0]] = (c + calls, s + self_ns - wrappers)
    c, s = out.get("bench", (0, 0.0))
    out["bench"] = (c, s + overhead)
    return out


def inside_share(rounds: int = 20_000) -> float:
    """The share of a wrapper's own cost that falls inside the interval
    it times, measured on a trivial method called from an open span."""
    class Probe:
        def method(self, a: int, b: int = 0) -> int:
            return a

    def per_call(fn: Callable, *args: Any) -> float:
        t0 = time.perf_counter_ns()
        for _ in range(rounds):
            fn(*args)
        return (time.perf_counter_ns() - t0) / rounds

    tracer = Tracer()
    tracer.stack.append(0)
    probe = Probe()
    wrapped = tracer.wrap(Probe.method, "bench", "probe")
    bare = per_call(probe.method, 1, 2)
    total = per_call(wrapped, probe, 1, 2)
    inside = tracer.agg("bench", "probe").self_ns / rounds - bare
    return min(1.0, max(0.0, inside / (total - bare)))


# ---------------------------------------------------------------------------
# installing wrappers (attribute replacement, no source edits)
# ---------------------------------------------------------------------------

def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for ``"module:Qual.name"``.

    The owner is the module for a function and the class for a method;
    the raw value is what sits in the owner's ``__dict__`` (so
    ``staticmethod``/``classmethod`` objects come back unwrapped).
    Raises ``LookupError`` when the name is not defined *on* the owner —
    a method inherited from a base class must be listed under the base.
    """
    modname, _, qual = target.partition(":")
    owner: Any = importlib.import_module(modname)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if attr not in vars(owner):
        raise LookupError(f"{target}: {attr!r} is not defined on "
                          f"{getattr(owner, '__name__', owner)!r}")
    return owner, attr, vars(owner)[attr]


def install(tracer: Tracer,
            boundaries: Iterable[Tuple[str, str, Optional[Callable]]]
            ) -> Callable[[], None]:
    """Replace every ``(layer, target, around)`` with a traced wrapper.

    ``around`` optionally decorates the original *inside* the span (the
    op marker and the output oracle use it).  Returns the function that
    undoes every replacement.
    """
    undo: List[Tuple[Any, str, Any]] = []
    for layer, target, around in boundaries:
        owner, attr, raw = resolve(target)
        inner = raw.__func__ if isinstance(
            raw, (staticmethod, classmethod)) else raw
        if around is not None:
            inner = around(inner)
        wrapped = tracer.wrap(inner, layer, target.partition(":")[2])
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(wrapped)
        if inspect.ismodule(owner):
            # ``from x import f`` copies the binding: rebind every repro
            # module global that still points at the original.
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        undo.append((mod, key, raw))
                        setattr(mod, key, wrapped)
        else:
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


def write_chrome_trace(path: Any, tracer: Tracer,
                       meta: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        json.dump(tracer.chrome_trace(meta), fh)
