"""Timer cancellation semantics and calendar-queue vs heap-oracle identity.

The calendar-queue core (DESIGN.md §11) must be observationally
identical to a plain binary heap keyed ``(time, seq)``: same dispatch
order, same clock, same dispatch *count* — including for cancelled
timers, which cost zero dispatches and never advance the clock.  The
heap lives in ``heap_oracle.py`` next to this file; every cancellation
case runs against both via the ``make_sim`` fixture.
"""

from __future__ import annotations

import json

import pytest

from heap_oracle import HeapOracle
from repro.experiments import fleet_churn
from repro.experiments.parallel import run_specs
from repro.sim import AnyOf, CPU, Resource, Simulator, start, substream
from repro.sim.engine import SimulationError, dispatch_count


@pytest.fixture(params=[Simulator, HeapOracle], ids=["calendar", "heap"])
def make_sim(request):
    return request.param


# ---------------------------------------------------------------------------
# cancellation semantics
# ---------------------------------------------------------------------------

class TestTimerCancellation:
    def test_cancelled_timer_never_fires(self, make_sim):
        sim = make_sim()
        fired = []
        handle = sim.call_later(1.0, fired.append, "boom")
        assert handle.cancel() is True
        sim.run()
        assert fired == []
        assert handle.cancelled and not handle.fired

    def test_cancel_costs_no_dispatch_and_no_clock_advance(self, make_sim):
        sim = make_sim()
        handle = sim.call_later(5.0, lambda: None)
        sim.schedule(1.0, handle.cancel)
        before = dispatch_count()
        sim.run()
        # One dispatch for the cancelling callback, none for the timer,
        # and the clock stops at the last *real* event.
        assert dispatch_count() - before == 1
        assert sim.now == 1.0

    def test_cancel_twice_second_is_noop(self, make_sim):
        sim = make_sim()
        handle = sim.call_later(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False
        sim.run()
        assert not handle.fired

    def test_cancel_after_fire_is_noop(self, make_sim):
        sim = make_sim()
        fired = []
        handle = sim.call_later(1.0, fired.append, "tick")
        sim.run()
        assert fired == ["tick"] and handle.fired
        assert handle.cancel() is False
        assert not handle.cancelled

    def test_fired_timer_dispatches_exactly_once(self, make_sim):
        sim = make_sim()
        hits = []
        sim.call_later(1.0, hits.append, 1)
        before = dispatch_count()
        sim.run()
        assert hits == [1]
        assert dispatch_count() - before == 1

    def test_cancel_same_timestamp_before_dispatch(self, make_sim):
        # A callback at t=1 cancels a timer also due at t=1 but queued
        # later (higher seq): the timer must not fire even though its
        # bucket is already being drained when the cancel lands.
        sim = make_sim()
        fired = []
        holder = {}

        def canceller():
            assert holder["h"].cancel() is True

        sim.schedule(1.0, canceller)                    # lower seq, runs first
        holder["h"] = sim.call_later(1.0, fired.append, "late")
        sim.run()
        assert fired == []
        assert sim.now == 1.0

    def test_timer_event_race_and_cancel(self, make_sim):
        # The NFS-client idiom: reply raced against an RTO timer; the
        # winner cancels the timer and no timer dispatch ever happens.
        sim = make_sim()
        outcome = []

        def rpc():
            waiter = sim.event()
            sim.schedule(0.01, waiter.succeed, "reply")
            timer = sim.timer(1.0)
            which, value = yield AnyOf(sim, [waiter, timer])
            if which == 0:
                timer.cancel()
            outcome.append((which, value, sim.now))

        start(sim, rpc(), name="rpc")
        sim.run()
        assert outcome == [(0, "reply", 0.01)]
        assert sim.now == 0.01  # the cancelled RTO never advanced time

    def test_timer_event_timeout_path(self, make_sim):
        sim = make_sim()
        outcome = []

        def rpc():
            waiter = sim.event()  # never succeeds
            timer = sim.timer(0.5, "rto")
            which, value = yield AnyOf(sim, [waiter, timer])
            outcome.append((which, value, sim.now))

        start(sim, rpc(), name="rpc")
        sim.run()
        assert outcome == [(1, "rto", 0.5)]

    def test_call_at_and_negative_delay_rejected(self, make_sim):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.call_later(-1.0, lambda: None)
        fired = []
        sim.call_at(2.0, fired.append, "at")
        sim.run()
        assert fired == ["at"] and sim.now == 2.0


# ---------------------------------------------------------------------------
# oracle identity
# ---------------------------------------------------------------------------

def _scripted_log(make_sim):
    """Ordering-sensitive scenario; returns its (time, tag) fingerprint.

    Touches contended/uncontended resources, CPU charges, same-time
    ties, zero-delay cascades, timer cancellation, and AnyOf racing —
    the features whose dispatch order must match the heap oracle's.
    """
    sim = make_sim()
    log = []

    lock = Resource(sim, capacity=1, name="lock")
    cpu = CPU(sim, cores=2, name="cpu")

    def worker(name, delay, hold):
        yield delay
        log.append([round(sim.now, 9), f"{name}.want"])
        yield from lock.use(hold)
        log.append([round(sim.now, 9), f"{name}.done"])
        return name

    def rpc(name, reply_after, rto):
        waiter = sim.event()
        sim.schedule(reply_after, waiter.succeed, f"{name}.reply")
        timer = sim.timer(rto)
        which, value = yield AnyOf(sim, [waiter, timer])
        if which == 0:
            timer.cancel()
            log.append([round(sim.now, 9), f"{name}.replied"])
        else:
            log.append([round(sim.now, 9), f"{name}.rto"])

    def cruncher():
        yield from cpu.execute(0.25)
        log.append([round(sim.now, 9), "cruncher.done"])

    start(sim, worker("w1", 0.0, 1.0), name="w1")
    start(sim, worker("w2", 0.5, 1.0), name="w2")
    start(sim, rpc("fast", 0.1, 2.0), name="fast")
    start(sim, rpc("slow", 9.0, 0.75), name="slow")
    start(sim, cruncher(), name="cruncher")
    # Same-timestamp pile-up: three callbacks on one bucket, one of
    # them scheduling a zero-delay cascade into the live bucket.
    for tag in ("a", "b"):
        sim.schedule(0.25, log.append, [0.25, f"tie.{tag}"])
    sim.schedule(0.25, lambda: sim.schedule(0.0, log.append,
                                            [0.25, "tie.cascade"]))
    sim.run()
    log.append([round(sim.now, 9), "end"])
    return log


def _seeded_program(make_sim, seed):
    """A random schedule/cancel/zero-delay-cascade program.

    Delays come from a short grid so same-timestamp ties, cascades into
    the live bucket, near-heap times and far-list times (past the 1 ms
    starting horizon) all occur; cancels hit pending, fired and already
    cancelled timers.  Returns (log, clock after run(until), final
    clock, dispatches).
    """
    sim = make_sim()
    rng = substream(seed, "engine-oracle")
    delays = (0.0, 0.0, 1e-6, 1e-6, 2.5e-4, 1e-3, 0.5, 3.0)
    log = []
    handles = []
    budget = [400]

    def act(tag):
        log.append((sim.now, tag))
        for i in range(rng.randrange(4)):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            child, delay, kind = f"{tag}.{i}", rng.choice(delays), rng.random()
            if kind < 0.5:
                sim.schedule(delay, act, child)
            elif kind < 0.8 or not handles:
                handles.append(sim.call_later(delay, act, child))
            else:
                handles[rng.randrange(len(handles))].cancel()

    for i in range(8):
        sim.schedule(rng.choice(delays), act, f"r{i}")
    before = dispatch_count()
    sim.run(until=1.0)
    mid = sim.now
    sim.run()
    return log, mid, sim.now, dispatch_count() - before


class TestBackendIdentity:
    def test_scripted_log_identical_across_backends(self):
        assert _scripted_log(Simulator) == _scripted_log(HeapOracle)

    def test_dispatch_count_identical_across_backends(self):
        counts = []
        for make_sim in (Simulator, HeapOracle):
            before = dispatch_count()
            _scripted_log(make_sim)
            counts.append(dispatch_count() - before)
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("seed", range(64))
    def test_seeded_program_identical_across_backends(self, seed):
        calendar = _seeded_program(Simulator, seed)
        assert calendar == _seeded_program(HeapOracle, seed)
        assert len(calendar[0]) > 8  # the program did branch

    def _grid_fingerprint(self, specs, workers=1):
        results = run_specs(specs, workers=workers)
        return json.dumps(
            [{"label": rr.label, "value": rr.value, "report": rr.report,
              "sim_events": rr.sim_events} for rr in results],
            sort_keys=True, default=str)

    def test_cancellation_worker_count_independent(self):
        # Workers 1 vs 4 over a churn point: RTO cancellations happen
        # inside pool workers; merged results must be byte-identical.
        specs = fleet_churn.grid(quick=True)[:1]
        assert (self._grid_fingerprint(specs, workers=1)
                == self._grid_fingerprint(specs, workers=4))
