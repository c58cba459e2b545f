"""Timer cancellation semantics and engine vs reference identity.

The engine's ``(time, seq)`` heap (DESIGN.md §11) must be
observationally identical to a reference that shares no code with it —
``minlist_reference.py`` next to this file, an unsorted list popped by
``min()``: same dispatch order, same clock, same dispatch *count* —
including for cancelled timers, which cost zero dispatches and never
advance the clock.  Every cancellation case runs against both via the
``make_sim`` fixture.
"""

from __future__ import annotations

import weakref

import pytest

from minlist_reference import MinListReference
from repro.sim import (CPU, Link, Resource, Simulator, Store, start,
                       substream)
from repro.sim.engine import SimulationError, StopSimulation, dispatch_count


# The ids predate the heap engine and are kept so test ids stay stable:
# "calendar" is the engine, "heap" the reference.
@pytest.fixture(params=[Simulator, MinListReference],
                ids=["calendar", "heap"])
def make_sim(request):
    return request.param


def _expire(waiter, value):
    """The clients' RTO idiom (``nfs/client.py``, ``fleet/peer.py``): the
    timer expires the *waiter* itself unless the reply got there first."""
    if not waiter.triggered:
        waiter.succeed(value)


# ---------------------------------------------------------------------------
# cancellation semantics
# ---------------------------------------------------------------------------

class TestTimerCancellation:
    def test_cancelled_timer_never_fires(self, make_sim):
        sim = make_sim()
        fired = []
        handle = sim.call_later(1.0, fired.append, "boom")
        assert handle.cancel() is True
        before = dispatch_count()
        sim.run()
        assert fired == []
        assert handle.cancelled and not handle.fired
        # Only a cancelled timer was queued: the run drains it without a
        # dispatch and the clock never reaches its deadline.
        assert dispatch_count() == before
        assert sim.now == 0.0

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

    def test_cancelled_timer_pins_nothing(self):
        # Lazy removal leaves the entry queued until its deadline; the
        # callback's arguments (an RPC waiter, an xid) must go at once.
        class Waiter:
            pass

        sim = Simulator()
        waiter = Waiter()
        ref = weakref.ref(waiter)
        handle = sim.call_later(1.0, lambda w: None, waiter)
        assert handle.cancel() is True
        del waiter
        assert ref() is None
        before = dispatch_count()
        sim.run()
        assert dispatch_count() == before and sim.now == 0.0

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
        # later (higher seq), with live entries on both sides of it in
        # seq order: the timer must not fire even though its timestamp
        # is already being drained when the cancel lands, and its
        # neighbours keep their order.
        sim = make_sim()
        fired = []
        holder = {}

        def canceller():
            assert holder["h"].cancel() is True

        sim.schedule(1.0, canceller)                    # lower seq, runs first
        sim.schedule(1.0, fired.append, "before")
        holder["h"] = sim.call_later(1.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "after")
        before = dispatch_count()
        sim.run()
        assert fired == ["before", "after"]
        assert dispatch_count() - before == 3
        assert sim.now == 1.0

    def test_timer_event_race_and_cancel(self, make_sim):
        # The NFS-client idiom: reply raced against an RTO timer; the
        # winner cancels the timer and no timer dispatch ever happens.
        sim = make_sim()
        outcome = []

        def rpc():
            waiter = sim.event()
            sim.schedule(0.01, waiter.succeed, "reply")
            timer = sim.call_later(1.0, _expire, waiter, "rto")
            value = yield waiter
            if value != "rto":
                timer.cancel()
            outcome.append((value, sim.now))

        start(sim, rpc(), name="rpc")
        sim.run()
        assert outcome == [("reply", 0.01)]
        assert sim.now == 0.01  # the cancelled RTO never advanced time

    def test_timer_event_timeout_path(self, make_sim):
        sim = make_sim()
        outcome = []

        def rpc():
            waiter = sim.event()  # no reply ever arrives
            sim.call_later(0.5, _expire, waiter, "rto")
            outcome.append(((yield waiter), sim.now))

        start(sim, rpc(), name="rpc")
        sim.run()
        assert outcome == [("rto", 0.5)]

    def test_call_at_and_negative_delay_rejected(self, make_sim):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.call_later(-1.0, lambda: None)


# ---------------------------------------------------------------------------
# oracle identity
# ---------------------------------------------------------------------------

def _scripted_log(make_sim):
    """Ordering-sensitive scenario; returns its (time, tag) fingerprint.

    Touches contended/uncontended resources, CPU charges, event waits,
    ``Store`` hand-offs (to a waiting getter and to a late one), link
    legs (a process transmit and a ``transmit_then`` callback), same-time
    ties, zero-delay cascades, RTO timers that fire and that are
    cancelled, and a ``StopSimulation`` in the middle of a tie — the
    features whose dispatch order must match the reference's.
    """
    sim = make_sim()
    log = []

    lock = Resource(sim, capacity=1, name="lock")
    cpu = CPU(sim, cores=2, name="cpu")
    mailbox = Store(sim, name="mailbox")
    wire = Link(sim, bandwidth_bps=8e6, latency_s=0.05, name="wire")

    def worker(name, delay, hold):
        yield delay
        log.append([round(sim.now, 9), f"{name}.want"])
        yield from lock.use(hold)
        log.append([round(sim.now, 9), f"{name}.done"])
        return name

    def rpc(name, reply_after, rto):
        waiter = sim.event()
        sim.schedule(reply_after, _expire, waiter, "reply")
        timer = sim.call_later(rto, _expire, waiter, "rto")
        if (yield waiter) == "reply":
            timer.cancel()
            log.append([round(sim.now, 9), f"{name}.replied"])
        else:
            log.append([round(sim.now, 9), f"{name}.rto"])

    def cruncher():
        yield from cpu.execute(0.25)
        log.append([round(sim.now, 9), "cruncher.done"])
        yield from cpu.execute(0.0)
        yield from cpu.execute(0.125)
        log.append([round(sim.now, 9), "cruncher.again"])

    def consumer(name, delay):
        yield delay
        item = yield mailbox.get()
        log.append([round(sim.now, 9), f"{name}.got.{item}"])
        arrived = yield from wire.transmit(1000)  # 1 ms + 50 ms latency
        log.append([round(arrived, 9), f"{name}.sent"])

    def producer():
        yield 0.3
        mailbox.put("a")  # to the getter already waiting
        mailbox.put("b")  # queued for the late getter
        wire.transmit_then(500, lambda: log.append(
            [round(sim.now, 9), "leg.arrived"]))

    start(sim, consumer("early", 0.0), name="early")
    start(sim, consumer("late", 0.4), name="late")
    start(sim, producer(), name="producer")
    start(sim, worker("w1", 0.0, 1.0), name="w1")
    start(sim, worker("w2", 0.5, 1.0), name="w2")
    start(sim, rpc("fast", 0.1, 2.0), name="fast")
    start(sim, rpc("slow", 9.0, 0.75), name="slow")
    start(sim, cruncher(), name="cruncher")
    # Same-timestamp pile-up: callbacks sharing one instant, one of them
    # scheduling a zero-delay cascade into it, one stopping the run.
    def stop():
        raise StopSimulation

    sim.schedule(0.25, log.append, [0.25, "tie.a"])
    sim.schedule(0.25, stop)
    sim.schedule(0.25, log.append, [0.25, "tie.b"])
    sim.schedule(0.25, lambda: sim.schedule(0.0, log.append,
                                            [0.25, "tie.cascade"]))
    sim.run()
    log.append([round(sim.now, 9), "stopped"])
    sim.run()
    log.append([round(sim.now, 9), "end"])
    return log


def _seeded_program(make_sim, seed):
    """A random schedule/cancel/zero-delay-cascade program.

    Delays come from a short grid so same-timestamp ties, cascades into
    the instant being dispatched and delays six orders of magnitude
    apart all occur; cancels hit pending, fired and already cancelled
    timers.  Returns (log, clock after run(until), final clock,
    dispatches).
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
        engine_log = _scripted_log(Simulator)
        assert engine_log == _scripted_log(MinListReference)
        # StopSimulation from the middle of the t=0.25 tie: the clock
        # stays there and the rest of the tie runs, in seq order (the
        # cascade last), on the next run().
        at = engine_log.index([0.25, "stopped"])
        assert engine_log[at - 1] == [0.25, "tie.a"]
        assert engine_log[at + 1:at + 3] == [[0.25, "tie.b"],
                                             [0.25, "tie.cascade"]]

    def test_dispatch_count_identical_across_backends(self):
        counts = []
        for make_sim in (Simulator, MinListReference):
            before = dispatch_count()
            _scripted_log(make_sim)
            counts.append(dispatch_count() - before)
        assert counts[0] == counts[1]

    def test_every_wake_up_is_one_push(self):
        """``_push`` is the one seam: every dispatch of the scripted
        scenario was pushed through it, and only the cancelled timers'
        pushes never dispatch."""
        class CountingPush(Simulator):
            def __init__(self):
                super().__init__()
                self.pushes = 0
                self.timers = []

            def _push(self, when, fn, args):
                self.pushes += 1
                if fn is None:
                    self.timers.append(args)
                super()._push(when, fn, args)

        sims = []

        def make_sim():
            sims.append(CountingPush())
            return sims[-1]

        before = dispatch_count()
        _scripted_log(make_sim)
        dispatched = dispatch_count() - before
        sim, = sims
        cancelled = sum(timer.cancelled for timer in sim.timers)
        assert cancelled and any(timer.fired for timer in sim.timers)
        assert dispatched == sim.pushes - cancelled

    @pytest.mark.parametrize("seed", range(64))
    def test_seeded_program_identical_across_backends(self, seed):
        engine_run = _seeded_program(Simulator, seed)
        assert engine_run == _seeded_program(MinListReference, seed)
        assert len(engine_run[0]) > 8  # the program did branch
