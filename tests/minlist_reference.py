"""Reference scheduler sharing no code with the engine's heap: an unsorted
list popped by ``min()`` on ``(time, seq)``.  ``test_engine_backends.py``
holds ``repro.sim.engine.Simulator`` to its dispatch order, dispatch count
and clock, cancelled timers (no dispatch, no clock advance) included."""

from repro.sim import engine


class MinListReference(engine.Simulator):
    def __init__(self):
        super().__init__()
        self._items = []  # unsorted (when, seq, fn, args, timer or None)

    def schedule(self, delay, fn, *args, timer=None):
        if delay < 0:
            raise engine.SimulationError(f"negative delay {delay!r}")
        self.schedule_at(self.now + delay, fn, *args, timer=timer)

    def schedule_at(self, when, fn, *args, timer=None):
        self._items.append((when, self._seq, fn, args, timer))
        self._seq += 1

    def call_later(self, delay, fn, *args):
        timer = engine.TimerHandle(self.now + delay, fn, args)
        self.schedule(delay, fn, *args, timer=timer)
        return timer

    def run(self, until=None):
        items = self._items
        try:
            while items:
                entry = min(items)  # seq is unique: fn is never compared
                when, _seq, fn, args, timer = entry
                if until is not None and when > until:
                    break
                items.remove(entry)
                if timer is not None:
                    if timer.cancelled:
                        continue
                    timer.fired = True
                self.now = when
                engine._dispatch_total += 1
                fn(*args)
        except engine.StopSimulation:
            return
        if until is not None:
            self.now = max(self.now, until)
