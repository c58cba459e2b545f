"""Contended resources: generic FIFO resource, CPUs and links.

All resources account *busy time* so experiments can report utilization,
which is one of the two quantities the paper plots (the other being
throughput).  Accounting counts resource-seconds: a 2-core CPU busy on both
cores for 1s accumulates 2 busy-seconds; utilization over a window divides
by ``capacity * window``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable

from .engine import Event, SimulationError, Simulator


class Resource:
    """A FIFO-served resource with ``capacity`` identical slots."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        # busy accounting
        self._busy_accum = 0.0
        self._last_change = 0.0

    # -- accounting ------------------------------------------------------

    def _note_change(self) -> None:
        now = self.sim.now
        self._busy_accum += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Cumulative resource-seconds of busy time up to now."""
        return self._busy_accum + self._in_use * (self.sim.now - self._last_change)

    def utilization(self, since_busy: float, since_time: float) -> float:
        """Utilization between a past snapshot and now.

        ``since_busy``/``since_time`` are a prior ``(busy_time(), sim.now)``
        snapshot pair.
        """
        window = self.sim.now - since_time
        if window <= 0:
            return 0.0
        return (self.busy_time() - since_busy) / (self.capacity * window)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    # -- acquire / release -----------------------------------------------

    def acquire(self) -> Event:
        """Request one slot; the returned event triggers when granted."""
        ev = self.sim.event()
        if self._in_use < self.capacity and not self._waiters:
            self._note_change()
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            ev = self._waiters.popleft()
            ev.succeed(self)
        else:
            self._note_change()
            self._in_use -= 1

    def use(self, hold: float) -> Generator[Any, Any, None]:
        """Process helper: acquire, hold for ``hold`` seconds, release.

        When the resource is free this skips the acquire Event entirely
        and yields the hold as a plain delay, which the process driver
        turns into a single heap entry — one dispatch per use instead of
        three.  Busy-time accounting is identical on both paths.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._note_change()
            self._in_use += 1
        else:
            yield self.acquire()
        try:
            yield hold
        finally:
            self.release()


class CPU:
    """A processor with ``cores`` identical cores.

    Model code charges work through :meth:`execute` (a plain delay for
    the process to ``yield from``) or accumulates aggregated nanosecond
    costs through a
    :class:`repro.copymodel.accounting.CopyAccountant` which eventually
    executes them here.

    Like :class:`Link`, the CPU is a FIFO queue with deterministic
    service times, so it runs on per-core *virtual clocks* instead of an
    event-driven resource: a charge arriving at ``t`` books the
    earliest-free core and starts at ``max(t, that core's next-free)``
    — exactly the start time FIFO hand-off would produce — and the
    charging process sleeps once, until the work completes.  A CPU
    charge is the single hottest operation in the tree (~10^6 per quick
    experiment), and under saturation (the paper's operating point for
    ORIGINAL mode) the resource version paid an extra grant event plus
    two dispatches per queued charge.
    """

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "cpu") -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        self.sim = sim
        self.capacity = cores
        self.name = name
        #: per-core next-free times (virtual clocks).
        self._free = [0.0] * cores
        self._booked = 0.0

    def _admit(self, seconds: float) -> float:
        """Book ``seconds`` on the earliest-free core; returns the delay
        from now until the work completes."""
        now = self.sim.now
        free = self._free
        if len(free) == 1:
            nf = free[0]
            finish = (nf if nf > now else now) + seconds
            free[0] = finish
        else:
            i = min(range(len(free)), key=free.__getitem__)
            nf = free[i]
            finish = (nf if nf > now else now) + seconds
            free[i] = finish
        self._booked += seconds
        return finish - now

    def busy_time(self) -> float:
        """Cumulative busy core-seconds up to now (in-flight pro rata)."""
        now = self.sim.now
        ahead = 0.0
        for f in self._free:
            if f > now:
                ahead += f - now
        return self._booked - ahead

    def utilization(self, since_busy: float, since_time: float) -> float:
        window = self.sim.now - since_time
        if window <= 0:
            return 0.0
        return (self.busy_time() - since_busy) / (self.capacity * window)

    def execute(self, seconds: float) -> Iterable[Any]:
        """Occupy one core for ``seconds`` of work (FIFO queueing).

        The hold is booked now, and the charge comes back as the plain
        delay until the work completes: ``(delay,)``, or ``()`` for no
        cost.  The charging process passes it to ``yield from`` at once
        and sleeps that long, with no generator frame in between.
        """
        if seconds < 0:
            raise SimulationError(f"negative CPU cost {seconds!r}")
        if seconds == 0.0:
            return ()
        return (self._admit(seconds),)  # queueing delay + hold


class Link:
    """A unidirectional link with fixed bandwidth and propagation latency.

    Transmissions serialize FIFO on the link; propagation latency is added
    after serialization and does not occupy the link (pipelining).
    Full-duplex paths are modelled as two independent ``Link`` objects.

    A capacity-1 FIFO queue with deterministic service times needs no
    event-driven resource: the link keeps a *virtual clock*
    (``_next_free``).  A burst arriving at ``t`` starts serializing at
    ``max(t, next_free)`` and finishes ``serialization_delay`` later —
    byte-identical timing to an acquire/hold/release resource, at one
    scheduled callback per transmission instead of two or three.  Busy
    accounting is exact: everything between ``now`` and ``next_free`` is
    a contiguous busy block (queued bursts run back to back and updates
    only happen at arrival times), so the busy time *up to now* is the
    total serialization booked minus the part of that block still ahead.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 latency_s: float = 10e-6, name: str = "link") -> None:
        if bandwidth_bps <= 0:
            raise SimulationError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.name = name
        self.bytes_sent = 0
        self._next_free = 0.0
        self._ser_total = 0.0

    def serialization_delay(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.bandwidth_bps

    def busy_time(self) -> float:
        """Cumulative busy seconds up to now (in-flight bursts pro rata)."""
        ahead = self._next_free - self.sim.now
        return self._ser_total - ahead if ahead > 0.0 else self._ser_total

    def utilization(self, since_busy: float, since_time: float) -> float:
        window = self.sim.now - since_time
        if window <= 0:
            return 0.0
        return (self.busy_time() - since_busy) / window

    def _admit(self, nbytes: int) -> float:
        """Book a burst on the virtual clock; returns the delivery delay."""
        if nbytes < 0:
            raise SimulationError("negative transmit size")
        self.bytes_sent += nbytes
        ser = nbytes * 8.0 / self.bandwidth_bps
        now = self.sim.now
        nf = self._next_free
        finish = (nf if nf > now else now) + ser
        self._next_free = finish
        self._ser_total += ser
        return finish - now + self.latency_s

    def transmit_then(self, nbytes: int, fn: Callable[..., None],
                      *args: Any) -> None:
        """Callback form of :meth:`transmit` for the per-datagram path:
        ``fn(*args)`` runs when the last bit arrives at the far end —
        one scheduled callback, no Process machinery."""
        sim = self.sim
        sim._push(sim.now + self._admit(nbytes), fn, args)

    def transmit(self, nbytes: int) -> Generator[Event, Any, None]:
        """Occupy the link while ``nbytes`` serialize, then wait latency.

        Returns (as the process value) the time at which the last bit
        arrives at the far end.
        """
        yield self._admit(nbytes)  # plain delay: no Event needed
        return self.sim.now


class Store:
    """An unbounded FIFO queue connecting producer and consumer processes."""

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
