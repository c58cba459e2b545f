"""Engine semantics: scheduling order, events, combinators, errors."""

import gc
import threading

import pytest

from repro.sim import AllOf, AnyOf, Event, SimulationError, Simulator
from repro.sim import engine
from repro.sim.engine import StopSimulation, dispatch_count


class TestScheduling:
    def test_callbacks_run_in_time_order(self, sim):
        hits = []
        sim.schedule(2.0, hits.append, "late")
        sim.schedule(1.0, hits.append, "early")
        sim.run()
        assert hits == ["early", "late"]

    def test_ties_break_by_insertion_order(self, sim):
        hits = []
        for i in range(10):
            sim.schedule(1.0, hits.append, i)
        sim.run()
        assert hits == list(range(10))

    def test_now_advances_to_event_time(self, sim):
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == 3.5

    def test_zero_delay_runs_at_current_time(self, sim):
        stamps = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, stamps.append, sim.now))
        sim.run()
        assert stamps == [1.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_run_until_stops_clock_exactly(self, sim):
        hits = []
        sim.schedule(1.0, lambda: None)
        sim.call_later(3.0, hits.append, "cancelled").cancel()  # ahead
        sim.schedule(5.0, hits.append, "late")
        sim.run(until=2.0)
        assert sim.now == 2.0 and hits == []
        before = dispatch_count()
        sim.run()  # one live event left: the cancelled timer is skipped
        assert hits == ["late"] and dispatch_count() - before == 1

    def test_run_until_includes_boundary_events(self, sim):
        hits = []
        sim.schedule(2.0, hits.append, "x")
        sim.run(until=2.0)
        assert hits == ["x"]

    def test_run_until_advances_clock_past_last_event(self, sim):
        sim.schedule(0.5, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_events_scheduled_during_run_execute(self, sim):
        hits = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, hits.append, "nested"))
        sim.run()
        assert hits == ["nested"]
        assert sim.now == 2.0


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_multicast(self, sim):
        ev = sim.event()
        got = []
        for _ in range(3):
            ev.add_callback(lambda e: got.append(e.value))
        ev.succeed("x")
        sim.run()
        assert got == ["x", "x", "x"]

    def test_callback_after_trigger_still_fires(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [7]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_value_before_trigger_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_marks_failed(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        assert ev.failed
        assert isinstance(ev.value, ValueError)

    def test_timeout_triggers_at_deadline(self, sim):
        ev = sim.timeout(2.5, value="done")
        sim.run()
        assert ev.triggered
        assert ev.value == "done"
        assert sim.now == 2.5


class TestCombinators:
    def test_anyof_triggers_on_first(self, sim):
        a, b = sim.timeout(2.0, "a"), sim.timeout(1.0, "b")
        any_ev = AnyOf(sim, [a, b])
        sim.run()
        assert any_ev.value == (1, "b")

    def test_anyof_ignores_later_events(self, sim):
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        any_ev = AnyOf(sim, [a, b])
        sim.run()
        assert any_ev.value == (0, "a")

    def test_allof_collects_all_values_in_order(self, sim):
        events = [sim.timeout(3.0 - i, i) for i in range(3)]
        all_ev = AllOf(sim, events)
        sim.run()
        assert all_ev.value == [0, 1, 2]

    def test_allof_empty_triggers_immediately(self, sim):
        all_ev = AllOf(sim, [])
        assert all_ev.triggered
        assert all_ev.value == []

    def test_allof_waits_for_slowest(self, sim):
        events = [sim.timeout(1.0), sim.timeout(9.0)]
        all_ev = AllOf(sim, events)
        sim.run(until=5.0)
        assert not all_ev.triggered
        sim.run()
        assert all_ev.triggered


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            trace = []
            for i in range(50):
                sim.schedule((i * 7919 % 13) / 10.0, trace.append, i)
            sim.run()
            return trace

        assert run_once() == run_once()

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()


class TestCollector:
    """``run`` dispatches with the cyclic collector paused, promotes what
    survives to the oldest generation and hands the collector back as
    it found it, however the run ends.  (On 3.11
    ``gc.get_freeze_count()`` walks the frozen list: the run reads it
    once, never per dispatch.)"""

    @pytest.fixture(params=(True, False), ids=("enabled", "disabled"))
    def found(self, request):
        """The collector's state before the run; enabled again after."""
        (gc.enable if request.param else gc.disable)()
        yield request.param
        gc.enable()

    @staticmethod
    def left_as_found(found):
        assert gc.isenabled() is found
        assert gc.get_freeze_count() == 0

    def test_paused_while_dispatching(self, found):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False]
        self.left_as_found(found)

    def test_survivors_promoted_and_no_collection_deferred(self, found):
        # Without the promotion the young count would stand at ~20,000
        # and the caller's next allocation would scan them all.
        sim = Simulator()
        kept = []
        sim.schedule(0.0, lambda: kept.extend([i] for i in range(20_000)))
        sim.run()
        assert gc.get_count()[0] < 1_000
        old = {id(obj) for obj in gc.get_objects(2)}
        assert all(id(obj) in old for obj in kept[::1000])
        self.left_as_found(found)

    def test_a_raising_callback(self, found):
        sim = Simulator()

        def fail():
            raise ValueError("model error")

        sim.schedule(1.0, fail)
        with pytest.raises(ValueError):
            sim.run()
        self.left_as_found(found)

    def test_stop_simulation(self, found):
        sim = Simulator()

        def stop():
            raise StopSimulation

        sim.schedule(1.0, stop)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        self.left_as_found(found)

    def test_rejected_reentry_touches_nothing(self, found, monkeypatch):
        # The re-entry check comes before the pause: the rejected call
        # neither pauses nor promotes.
        sim = Simulator()
        pauses = []
        real = engine.collector_paused
        monkeypatch.setattr(engine, "collector_paused",
                            lambda: pauses.append(1) or real())

        def reenter():
            before = len(pauses)
            with pytest.raises(SimulationError, match="re-entered"):
                sim.run()
            assert len(pauses) == before
            assert not gc.isenabled()

        sim.schedule(1.0, reenter)
        sim.run()
        assert pauses == [1]
        self.left_as_found(found)

    def test_a_frozen_set_stays_frozen(self, found, monkeypatch):
        marker = [object()]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            calls = []
            for name in ("freeze", "unfreeze"):
                monkeypatch.setattr(gc, name, lambda name=name,
                                    real=getattr(gc, name):
                                    calls.append(name) or real())
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.run()
            monkeypatch.undo()
            assert calls == []
            assert gc.isenabled() is found
            assert not any(obj is marker for gen in range(3)
                           for obj in gc.get_objects(gen))
            # Nothing left the frozen set and nothing joined it.  Another
            # thread (the session's cell pool) may free frozen objects of
            # its own at any moment, so the count is exact only alone.
            assert 0 < gc.get_freeze_count() <= frozen
            if threading.active_count() == 1:
                assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
