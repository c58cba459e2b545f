"""Discrete-event simulation engine.

The engine is deliberately small and deterministic: a calendar queue of
scheduled callbacks bucketed by exact timestamp, plus a generator-based
process abstraction in :mod:`repro.sim.process`.

Time is a float measured in **seconds** of simulated time.  All model
constants elsewhere in the library are expressed in nanoseconds and
converted through :data:`NS`.

**Calendar core** (DESIGN.md §11).  Events land in per-timestamp FIFO
buckets (``dict[time, deque]``); the *distinct* times below the current
horizon live in a small binary heap (``_near``) and times at or beyond
it in an unsorted overflow list (``_far``).  Scheduling an event at an
already-populated timestamp is a dict lookup plus a deque append — no
heap churn — which makes the dominant patterns (zero-delay cascades,
same-tick callback fan-out) amortized O(1).  The run loop drains one
whole bucket per round; events scheduled *at the current time* during
the drain join the live bucket and run in the same round, exactly where
a ``(time, seq)`` heap would have put them.  When the near heap empties,
the far list is partitioned against a new horizon ``min(far) + width``;
the window ``width`` adapts deterministically to the batch size.

**Ordering contract.**  Dispatch is in ``(time, seq)`` order: time
order, ties broken by the monotonic sequence number assigned at
insertion.  Every bucket is FIFO, so within one timestamp FIFO order
*is* seq order; across timestamps the near heap and the far partition
preserve time order (every far time is >= the horizon, every near time
is below it, and the horizon only moves forward).
``tests/test_engine_backends.py`` checks this against a plain binary
heap keyed ``(time, seq)`` (``tests/heap_oracle.py``).

**Timers.**  :meth:`Simulator.call_later` / :meth:`Simulator.timer`
return cancellable handles.  Cancelling physically removes the entry
from its bucket, so an RTO timer whose reply already arrived costs *no*
dispatch and never advances the clock; a fired timer dispatches exactly
once.

Determinism rules observed throughout the library:

* ties in the event queue break by insertion order (monotonic sequence);
* no wall-clock or global-random access anywhere in the simulation;
  randomness comes from explicitly seeded generators (:mod:`repro.sim.rng`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable, Optional

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


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class StopSimulation(BaseException):
    """Raised by a dispatched callback to stop :meth:`Simulator.run`.

    The run loop catches it, leaves the queue consistent (everything not
    yet dispatched stays scheduled) and returns with the clock at the
    instant of the raising callback.  This is how
    :func:`repro.servers.testbed.run_until_complete` drives a setup phase
    through the fast ``run()`` loop instead of one ``step()`` call per
    event: a completion callback on the watched process raises it.

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
            self.sim.schedule(0.0, fn, self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.schedule(0.0, fn, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = exc
        self._is_error = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.schedule(0.0, fn, self)
        return self


class TimerHandle:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.call_later` / :meth:`Simulator.call_at`.
    :meth:`cancel` before the deadline removes the timer at zero dispatch
    cost; cancelling after it fired is a no-op.
    """

    __slots__ = ("when", "fired", "cancelled", "_sim", "_fn", "_args",
                 "_entry")

    def __init__(self, sim: "Simulator", when: float, fn: Callable,
                 args: tuple) -> None:
        self.when = when
        self.fired = False
        self.cancelled = False
        self._sim = sim
        self._fn = fn
        self._args = args
        #: the calendar bucket entry (for physical removal on cancel).
        self._entry: Optional[tuple] = None

    def cancel(self) -> bool:
        """Cancel the timer; ``True`` if it had not fired yet."""
        if self.fired or self.cancelled:
            return False
        self.cancelled = True
        self._sim._discard_timer(self)
        return True

    def _dispatch(self) -> None:
        self.fired = True
        self._fn(*self._args)


class Timer(Event):
    """A cancellable timeout event (the RTO idiom).

    Like :meth:`Simulator.timeout` but carrying a :meth:`cancel` that
    physically descheduls the underlying timer, so a race that the timer
    *loses* (the common case: the reply beat the RTO) costs nothing.
    Cancelling after the timer fired is a no-op.
    """

    __slots__ = ("handle",)

    def __init__(self, sim: "Simulator", delay: float,
                 value: Any = None) -> None:
        super().__init__(sim)
        self.handle = sim.call_later(delay, self._expire, value)

    def _expire(self, value: Any) -> None:
        self.succeed(value)

    def cancel(self) -> bool:
        """Cancel the pending timer; ``True`` if it had not fired."""
        return self.handle.cancel()


class Simulator:
    """The event loop (calendar-queue core).

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

    #: starting calendar window; :meth:`_refill` adapts it (deterministic
    #: doubling/halving on batch size, so identical runs adapt identically).
    _INITIAL_WIDTH = 1e-3

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        self._running = False
        #: per-timestamp FIFO buckets of ``(seq, fn, args)`` entries.
        #: Most simulated timestamps are unique, so a bucket holding a
        #: single entry stores the tuple directly; it is promoted to a
        #: deque on the first same-time collision.  The run loop and the
        #: timer-cancel path dispatch on ``type(q) is deque``.
        self._buckets: dict[float, Any] = {}
        #: heap of the distinct bucket times below the horizon.
        self._near: list[float] = []
        #: unsorted overflow: distinct bucket times at/past the horizon.
        self._far: list[float] = []
        self._width = self._INITIAL_WIDTH
        self._horizon = self._INITIAL_WIDTH
        #: Structured trace bus (disabled, and nearly free, by default).
        #: An active :func:`repro.obs.trace.tracing` session adopts it.
        self.trace = TraceBus(clock=self)
        session = active_session()
        if session is not None:
            session.adopt(self.trace)

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Hot path: a fresh timestamp costs one dict probe and storing
        # the entry tuple itself — no deque, no heap operation.
        when = self.now + delay
        buckets = self._buckets
        q = buckets.get(when)
        seq = self._seq
        self._seq = seq + 1
        if q is None:
            buckets[when] = (seq, fn, args)
            if when < self._horizon:
                heapq.heappush(self._near, when)
            else:
                self._far.append(when)
        elif type(q) is deque:
            q.append((seq, fn, args))
        else:
            buckets[when] = deque((q, (seq, fn, args)))

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(f"scheduling into the past: {when} < {self.now}")
        buckets = self._buckets
        q = buckets.get(when)
        seq = self._seq
        self._seq = seq + 1
        if q is None:
            buckets[when] = (seq, fn, args)
            if when < self._horizon:
                heapq.heappush(self._near, when)
            else:
                self._far.append(when)
        elif type(q) is deque:
            q.append((seq, fn, args))
        else:
            buckets[when] = deque((q, (seq, fn, args)))

    def event(self) -> Event:
        """Create a fresh pending :class:`Event` bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers ``delay`` seconds from now."""
        ev = Event(self)
        self.schedule(delay, ev.succeed, value)
        return ev

    # -- timers ----------------------------------------------------------

    def call_later(self, delay: float, fn: Callable,
                   *args: Any) -> TimerHandle:
        """Schedule a cancellable ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._schedule_timer(self.now + delay, fn, args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        """Schedule a cancellable ``fn(*args)`` at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(f"scheduling into the past: {when} < {self.now}")
        return self._schedule_timer(when, fn, args)

    def timer(self, delay: float, value: Any = None) -> Timer:
        """A cancellable :meth:`timeout` (see :class:`Timer`)."""
        return Timer(self, delay, value)

    def _schedule_timer(self, when: float, fn: Callable,
                        args: tuple) -> TimerHandle:
        handle = TimerHandle(self, when, fn, args)
        entry = (self._seq, handle._dispatch, ())
        handle._entry = entry
        self._seq += 1
        buckets = self._buckets
        q = buckets.get(when)
        if q is None:
            buckets[when] = entry
            if when < self._horizon:
                heapq.heappush(self._near, when)
            else:
                self._far.append(when)
        elif type(q) is deque:
            q.append(entry)
        else:
            buckets[when] = deque((q, entry))
        return handle

    def _discard_timer(self, handle: TimerHandle) -> None:
        """Physically remove a cancelled timer's entry from its bucket.

        The bucket at one exact timestamp is tiny (usually one entry),
        so ``deque.remove`` is effectively O(1).  An emptied bucket is
        left in place — the run loop discards it without dispatching
        anything or advancing the clock.
        """
        q = self._buckets.get(handle.when)
        if q is None:
            return
        if type(q) is deque:
            try:
                q.remove(handle._entry)
            except ValueError:
                pass  # already popped for dispatch
        elif q is handle._entry:
            # Singleton bucket: drop it outright; the run loop reaps the
            # stale near-heap time without dispatching.
            del self._buckets[handle.when]

    # -- calendar internals ----------------------------------------------

    def _refill(self) -> None:
        """Partition the far list against a new horizon.

        The new horizon is ``min(far) + width``: at least one bucket
        always moves near, and since every far time is >= the old
        horizon, the horizon is strictly monotonic — cross-window
        ordering can never invert.  Width adapts deterministically:
        doubled when the batch comes up thin (events sparse relative to
        the window), halved when a refill sweeps in a huge batch.
        """
        far = self._far
        width = self._width
        horizon = min(far) + width
        near: list[float] = []
        remaining: list[float] = []
        for when in far:
            if when < horizon:
                near.append(when)
            else:
                remaining.append(when)
        if remaining and len(near) < 8:
            self._width = width * 2.0
        elif len(near) > 1024 and width > 2e-9:
            self._width = width * 0.5
        heapq.heapify(near)
        self._near = near
        self._far = remaining
        self._horizon = horizon
        trace = self.trace
        if trace.engine_events:
            trace.emit("engine.bucket_refill", cat="engine", t=self.now,
                       horizon=horizon, moved=len(near),
                       far=len(remaining))
            if self._width != width:
                trace.emit("engine.bucket_resize", cat="engine", t=self.now,
                           width=self._width)

    def _next_time(self) -> Optional[float]:
        """Earliest time with a non-empty bucket, or ``None`` when drained.

        Skips (and reaps) buckets emptied by timer cancellation and
        refills the near heap from the far list as needed.
        """
        near = self._near
        buckets = self._buckets
        while True:
            while near:
                when = near[0]
                q = buckets.get(when)
                if q:
                    return when
                heapq.heappop(near)
                if q is not None:
                    del buckets[when]
            if not self._far:
                return None
            self._refill()
            near = self._near

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next scheduled callback.

        Returns ``False`` when nothing is pending.
        """
        global _dispatch_total
        when = self._next_time()
        if when is None:
            return False
        q = self._buckets[when]
        if type(q) is deque:
            seq, fn, args = q.popleft()
            if not q:
                # Consume the bucket *before* dispatching: fn may
                # reschedule at this same time, which must create a
                # fresh bucket.
                del self._buckets[when]
                heapq.heappop(self._near)
        else:
            seq, fn, args = q
            del self._buckets[when]
            heapq.heappop(self._near)
        self.now = when
        trace = self.trace
        if trace.engine_events:
            # Per-dispatch tracing is opt-in: enormous volume, but it makes
            # the engine's interleaving visible in chrome://tracing.
            trace.emit("engine.dispatch", cat="engine", t=when, seq=seq,
                       fn=getattr(fn, "__qualname__", repr(fn)))
        _dispatch_total += 1
        fn(*args)
        return True

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
        # Hot loop: one bucket per round.  Events scheduled at the
        # current time during the drain append to the live deque and run
        # in this same round — identical to (time, seq) heap order, since
        # their seq is necessarily larger than everything already here.
        buckets = self._buckets
        trace = self.trace
        heappop = heapq.heappop
        dispatched = 0
        try:
            while True:
                # Inlined _next_time: seek the earliest non-empty bucket,
                # reaping cancelled-out times and refilling from the far
                # list — one dict probe per round instead of two plus a
                # function call.
                q = None
                while True:
                    near = self._near
                    while near:
                        when = near[0]
                        q = buckets.get(when)
                        if q:
                            break
                        # Stale time: cancelled singleton (no bucket) or
                        # a deque emptied by cancellation — reap both.
                        heappop(near)
                        if q is not None:
                            del buckets[when]
                            q = None
                    if q is not None or not self._far:
                        break
                    self._refill()
                if q is None:
                    if until is None:
                        san = _sanitizer.active()
                        if san is not None:
                            # Simulation end: sweep for lifecycle leaks
                            # (dirty chunks evicted but never written
                            # back, chunks pinned forever).
                            san.sim_ended(self)
                    break
                if until is not None and when > until:
                    break
                heappop(near)
                self.now = when
                if type(q) is not deque:
                    # Singleton bucket: consume before dispatching (fn
                    # may reschedule at this same time, which makes a
                    # fresh bucket that the next round picks first).
                    del buckets[when]
                    if trace.engine_events:
                        trace.emit("engine.dispatch", cat="engine", t=when,
                                   seq=q[0],
                                   fn=getattr(q[1], "__qualname__",
                                              repr(q[1])))
                    dispatched += 1
                    q[1](*q[2])
                    continue
                if trace.engine_events:
                    while q:
                        seq, fn, args = q.popleft()
                        trace.emit("engine.dispatch", cat="engine", t=when,
                                   seq=seq,
                                   fn=getattr(fn, "__qualname__", repr(fn)))
                        dispatched += 1
                        fn(*args)
                else:
                    while q:
                        entry = q.popleft()
                        dispatched += 1
                        entry[1](*entry[2])
                del buckets[when]
            if until is not None:
                self.now = max(self.now, until)
        except StopSimulation:
            # A callback stopped the run at the current instant.  If it
            # fired mid-drain of a deque bucket, the bucket is still in
            # the dict but its time is no longer in the near heap —
            # restore the invariant so a later run() resumes cleanly.
            if type(q) is deque and buckets.get(when) is q:
                if q:
                    heapq.heappush(self._near, when)
                else:
                    del buckets[when]
        finally:
            self._running = False
            _dispatch_total += dispatched

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` if none pending."""
        return self._next_time()

    def pending(self) -> int:
        """Number of scheduled-but-unexecuted callbacks."""
        return sum(len(q) if type(q) is deque else 1
                   for q in self._buckets.values())


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
