"""Reference scheduler: a plain binary heap keyed ``(time, seq)``.

The calendar core in ``repro.sim.engine`` must dispatch in exactly this
order, count exactly these dispatches and never advance the clock for a
cancelled timer.  ``test_engine_backends.py`` runs both and compares.
"""

from __future__ import annotations

import heapq

from repro.sim import engine


class HeapOracle(engine.Simulator):
    def __init__(self) -> None:
        super().__init__()
        self._heap: list = []

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise engine.SimulationError(f"negative delay {delay!r}")
        self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, when, fn, *args):
        heapq.heappush(self._heap, (when, self._seq, fn, args))
        self._seq += 1

    def _schedule_timer(self, when, fn, args):
        handle = engine.TimerHandle(self, when, fn, args)
        self.schedule_at(when, None, handle)  # fn=None marks a timer
        return handle

    def _discard_timer(self, handle):
        pass  # skipped at pop time: no dispatch, no clock advance

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            when, _seq, fn, args = heapq.heappop(heap)
            if fn is None:
                if args[0].cancelled:
                    continue
                fn, args = args[0]._dispatch, ()
            self.now = when
            engine._dispatch_total += 1
            fn(*args)
        if until is not None:
            self.now = max(self.now, until)
