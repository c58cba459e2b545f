"""Reference scheduler sharing no code with the engine's heap: an unsorted
list popped by ``min()`` on ``(time, seq)``.  ``test_engine_backends.py``
holds ``repro.sim.engine.Simulator`` to its dispatch order, dispatch count
and clock, cancelled timers (no dispatch, no clock advance) included.

It replaces ``Simulator._push``, the one method every entry goes through
(``schedule``, ``call_later``, an event's wake-ups, a process's sleep, a
link leg), so a wake-up that bypassed it would be lost here."""

from repro.sim import engine


class MinListReference(engine.Simulator):
    def __init__(self):
        super().__init__()
        # Unsorted (when, seq, fn, args); a timer is (when, seq, None, handle).
        self._items = []

    def _push(self, when, fn, args):
        self._items.append((when, self._seq, fn, args))
        self._seq += 1

    def run(self, until=None):
        items = self._items
        try:
            while items:
                entry = min(items)  # seq is unique: fn is never compared
                when, _seq, fn, args = entry
                if until is not None and when > until:
                    break
                items.remove(entry)
                if fn is None:
                    timer = args
                    if timer.cancelled:
                        continue
                    timer.fired = True
                    fn, args = timer._fn, timer._args
                self.now = when
                engine._dispatch_total += 1
                fn(*args)
        except engine.StopSimulation:
            return
        if until is not None:
            self.now = max(self.now, until)
