"""Discrete-event simulation engine.

The engine is deliberately small and deterministic: one binary heap of
scheduled callbacks keyed ``(time, seq)``, plus a generator-based
process abstraction in :mod:`repro.sim.process`.

Time is a float measured in **seconds** of simulated time.  All model
constants elsewhere in the library are expressed in nanoseconds and
converted through :data:`NS`.

**Ordering contract** (DESIGN.md §11).  Dispatch is in ``(time, seq)``
order: time order, ties broken by the monotonic sequence number
assigned at insertion, so callbacks scheduled for one instant run FIFO
and a callback scheduled *at the current time* runs after everything
already queued for it.  ``tests/test_engine_backends.py`` checks this
against a reference that shares no code with the heap
(``tests/minlist_reference.py``: an unsorted list popped by ``min()``).
The model's correctness must not lean on that FIFO: every entry goes
through :meth:`Simulator._push`, and the integrity search
(``tests/content_oracle.py``) overrides it to dispatch same-instant
events in a seeded random order.

**Timers.**  :meth:`Simulator.call_later` returns a cancellable handle.
Cancellation is lazy: the heap entry stays until its deadline reaches
the top, where it is skipped — no dispatch, no
:func:`dispatch_count` tick, no clock advance — so an RTO timer whose
reply already arrived costs nothing observable.  ``cancel()`` drops the
callback and its arguments at once, so the stale entry pins nothing.  A
fired timer dispatches exactly once.

Determinism rules observed throughout the library:

* ties in the event queue break by insertion order (monotonic sequence);
* no wall-clock or global-random access anywhere in the simulation;
  randomness comes from explicitly seeded generators (:mod:`repro.sim.rng`).

**The cyclic collector** is off while :meth:`Simulator.run` dispatches
(:func:`collector_paused`, DESIGN.md §11): a run makes no cyclic
garbage, which ``tests/test_no_cyclic_garbage.py`` and every cell of the
integrity search check.
"""

from __future__ import annotations

import gc
import heapq
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

from ..check import sanitizer as _sanitizer
from ..obs.trace import TraceBus, active_session

#: Multiply a nanosecond quantity by this to obtain simulated seconds.
NS = 1e-9

#: Multiply a microsecond quantity by this to obtain simulated seconds.
US = 1e-6

#: Multiply a millisecond quantity by this to obtain simulated seconds.
MS = 1e-3

#: Process-wide count of dispatched engine callbacks, updated when a
#: :meth:`Simulator.run` completes (not per event — the run loop counts
#: locally).  The experiment runner and ``benchmarks/ncbench`` difference
#: it around a run as ``sim_events``, an identity check; inside a pool
#: worker it covers exactly that worker's runs.
_dispatch_total = 0


def dispatch_count() -> int:
    """Total engine callbacks dispatched in this process so far."""
    return _dispatch_total


@contextmanager
def collector_paused() -> Iterator[None]:
    """The cyclic collector off for the duration, then as it was found.

    Sound only because no run and no warm start makes cyclic garbage:
    the collector would rescan their young survivors and free nothing
    (DESIGN.md §11).  On the way out every tracked object moves to the
    oldest generation (``freeze`` then ``unfreeze``: two list splices,
    nothing scanned or left frozen), which also zeroes the young count,
    so no collection is deferred to the caller.  A frozen set some other
    code owns stays frozen: then the promotion is skipped.  (On 3.11
    ``gc.get_freeze_count`` walks the frozen list, so it is read once per
    pause, never per dispatch.)"""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class StopSimulation(BaseException):
    """Raised by a dispatched callback to stop :meth:`Simulator.run`.

    The run loop catches it, leaves the queue consistent (everything not
    yet dispatched stays scheduled) and returns with the clock at the
    instant of the raising callback.  This is how
    :func:`repro.servers.testbed.run_until_complete` drives a setup phase
    through the one ``run()`` loop: a completion callback on the watched
    process raises it.

    Derives from ``BaseException`` so model-level ``except Exception``
    handlers cannot swallow it.
    """


class Event:
    """A one-shot waitable occurrence.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it exactly once, delivering ``value`` to every registered
    callback and to every process waiting on it.  Events are multicast:
    any number of processes may wait on the same event.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "_value", "_is_error")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: list[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self._is_error = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    @property
    def failed(self) -> bool:
        return self._triggered and self._is_error

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event triggers.

        If the event has already triggered the callback is scheduled to run
        immediately (at the current simulation time) rather than invoked
        synchronously, preserving run-to-completion semantics.
        """
        if self._triggered:
            sim = self.sim
            sim._push(sim.now, fn, (self,))
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        sim = self.sim
        for fn in callbacks:
            sim._push(sim.now, fn, (self,))
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = exc
        self._is_error = True
        callbacks, self._callbacks = self._callbacks, []
        sim = self.sim
        for fn in callbacks:
            sim._push(sim.now, fn, (self,))
        return self


class TimerHandle:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.call_later`.  :meth:`cancel` before the
    deadline means the timer never dispatches; cancelling after it fired
    is a no-op.
    """

    __slots__ = ("when", "fired", "cancelled", "_fn", "_args")

    def __init__(self, when: float, fn: Callable, args: tuple) -> None:
        self.when = when
        self.fired = False
        self.cancelled = False
        self._fn = fn
        self._args = args

    def cancel(self) -> bool:
        """Cancel the timer; ``True`` if it had not fired yet."""
        if self.fired or self.cancelled:
            return False
        self.cancelled = True
        # The heap entry outlives the cancel (it is skipped when its
        # deadline is popped); it must not keep the callback's arguments
        # — an RPC waiter, an xid — alive until then.
        del self._fn, self._args
        return True

    def _dispatch(self) -> None:
        self.fired = True
        self._fn(*self._args)


class Simulator:
    """The event loop: a binary heap keyed ``(time, seq)``.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(1.5, hits.append, "a")
    >>> sim.schedule(0.5, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        self._running = False
        #: ``(when, seq, fn, args)`` entries; ``seq`` is unique, so the
        #: comparison never reaches ``fn``.  A timer is
        #: ``(when, seq, None, handle)``.
        self._heap: list[tuple] = []
        #: Structured trace bus (disabled, and nearly free, by default).
        #: An active :func:`repro.obs.trace.tracing` session adopts it.
        self.trace = TraceBus(clock=self)
        session = active_session()
        if session is not None:
            session.adopt(self.trace)

    # -- scheduling ------------------------------------------------------

    def _push(self, when: float, fn: Optional[Callable], args: Any) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (when, seq, fn, args))

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._push(self.now + delay, fn, args)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"scheduling into the past: {when} < {self.now}")
        self._push(when, fn, args)

    def event(self) -> Event:
        """Create a fresh pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers ``delay`` seconds from now."""
        ev = Event(self)
        self.schedule(delay, ev.succeed, value)
        return ev

    def call_later(self, delay: float, fn: Callable,
                   *args: Any) -> TimerHandle:
        """Schedule a cancellable ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        handle = TimerHandle(self.now + delay, fn, args)
        self._push(handle.when, None, handle)
        return handle

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until simulated time ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, so utilization windows that
        end at ``until`` are well-defined.
        """
        global _dispatch_total
        if self._running:
            raise SimulationError("run() re-entered")
        self._running = True
        heap = self._heap
        trace = self.trace
        heappop = heapq.heappop
        dispatched = 0
        try:
            with collector_paused():
                while heap:
                    if until is not None and heap[0][0] > until:
                        break
                    when, seq, fn, args = heappop(heap)
                    if fn is None:
                        if args.cancelled:
                            continue
                        fn, args = args._dispatch, ()
                    self.now = when
                    if trace.engine_events:
                        trace.emit("engine.dispatch", cat="engine", t=when,
                                   seq=seq,
                                   fn=getattr(fn, "__qualname__", repr(fn)))
                    dispatched += 1
                    fn(*args)
                else:
                    san = _sanitizer.active() if until is None else None
                    if san is not None:
                        # Simulation end: sweep for lifecycle leaks (dirty
                        # chunks evicted but never written back, chunks
                        # pinned forever).
                        san.sim_ended(self)
            if until is not None:
                self.now = max(self.now, until)
        except StopSimulation:
            # A callback stopped the run at the current instant; every
            # entry not yet popped is still queued for the next run().
            pass
        finally:
            self._running = False
            _dispatch_total += dispatched


class AnyOf(Event):
    """Event that triggers when the *first* of ``events`` triggers.

    Its value is the ``(index, value)`` pair of the first event.
    """

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._done = False
        for i, ev in enumerate(events):
            ev.add_callback(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if not self._done:
                self._done = True
                self.succeed((index, ev.value))

        return cb


class AllOf(Event):
    """Event that triggers when *all* of ``events`` have triggered.

    Its value is the list of the component events' values, in order.
    """

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._events:
            ev.add_callback(self._one_done)

    def _one_done(self, _ev: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])
