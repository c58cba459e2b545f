"""Generator-based processes on top of the event engine.

A *process* is a Python generator driven by the simulator.  The generator
may yield:

* an :class:`~repro.sim.engine.Event` — the process resumes when the event
  triggers, and the ``yield`` expression evaluates to the event's value;
* a ``float``/``int`` — shorthand for ``sim.timeout(delay)``;
* another :class:`Process` — join: resume when that process returns, the
  ``yield`` evaluates to its return value.

A process is itself an :class:`Event` that triggers with the generator's
return value, so processes compose: ``result = yield some_process``.

Failures: if an awaited event fails, the exception is thrown *into* the
generator (so model code can ``try/except`` around a ``yield``).  If the
generator itself raises, the process event fails, and the exception
propagates to joiners; if nobody is joined, it is re-raised at the event
loop to avoid silently losing errors.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Union

from .engine import Event, SimulationError, Simulator

Yieldable = Union[Event, float, int]


class Process(Event):
    """Drives a generator; triggers (as an Event) with its return value."""

    __slots__ = ("name", "_gen", "_joined", "_starting")

    def __init__(self, sim: Simulator, gen: Generator[Yieldable, Any, Any],
                 name: Optional[str] = None) -> None:
        # Event.__init__, inline: one frame less per process started.
        self.sim = sim
        self._callbacks = []
        self._triggered = False
        self._value = None
        self._is_error = False
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(gen).__name__}; "
                "did you call a plain function instead of a generator function?")
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._joined = False
        # Inline start: run the first segment to its first yield right
        # here instead of scheduling it at +0.0 — one schedule+dispatch
        # saved per process, and the rx path starts one per datagram.
        # Ordering shifts deterministically (the first segment now runs
        # before the starter's next statement, not after its current
        # callback returns); nothing in the tree depends on the old
        # interleaving.
        self._starting = True
        try:
            self._resume(None, False)
        finally:
            self._starting = False

    def add_callback(self, fn) -> None:  # type: ignore[override]
        self._joined = True
        super().add_callback(fn)

    # -- driving ---------------------------------------------------------

    def _resume(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self._gen.throw(value)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._crash(exc)
            return
        if type(target) is float and target >= 0.0:
            # Sleep fast path: every CPU charge and link transmission
            # yields a non-negative float, so its wake-up is one push,
            # with no timeout Event and no further frame.
            sim = self.sim
            sim._push(sim.now + target, self._resume, (None, False))
            return
        self._wait_on(target)

    def _wait_on(self, target: Yieldable) -> None:
        if isinstance(target, (int, float)):
            # Any other delay (an int, a negative or a float subclass)
            # is checked by ``schedule``: a negative one kills the
            # process.
            try:
                self.sim.schedule(float(target), self._resume, None, False)
            except SimulationError as exc:  # negative delay
                self._crash(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}; "
                "expected Event, Process or a delay in seconds")
            self._crash(exc)
            return
        target.add_callback(self._on_event)

    def _on_event(self, ev: Event) -> None:
        self._resume(ev._value, ev._is_error)

    def _crash(self, exc: BaseException) -> None:
        self.fail(exc)
        if not self._joined:
            if self._starting:
                # Crash in the inline first segment: the caller of
                # start() has not had the chance to join yet.  Re-check
                # once the current instant's callbacks have run, so
                # ``proc = start(...); proc.add_callback(...)`` keeps
                # its pre-inline-start semantics.
                self.sim.schedule(0.0, self._raise_if_unjoined, exc)
                return
            # No joiner will ever observe this failure; surface it loudly.
            raise exc

    def _raise_if_unjoined(self, exc: BaseException) -> None:
        if not self._joined:
            raise exc


def start(sim: Simulator, gen: Generator[Yieldable, Any, Any],
          name: Optional[str] = None) -> Process:
    """Start ``gen`` as a process on ``sim`` and return its handle."""
    return Process(sim, gen, name=name)
