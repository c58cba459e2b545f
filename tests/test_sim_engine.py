"""Engine semantics: scheduling order, events, combinators, errors."""

import pytest

from repro.sim import AllOf, AnyOf, Event, SimulationError, Simulator


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
        sim.schedule(1.0, lambda: None)
        sim.call_later(3.0, lambda: None).cancel()  # ahead of the live one
        sim.schedule(5.0, lambda: None)
        sim.run(until=2.0)
        assert sim.now == 2.0
        assert sim.pending() == 1

    def test_run_until_includes_boundary_events(self, sim):
        hits = []
        sim.schedule(2.0, hits.append, "x")
        sim.run(until=2.0)
        assert hits == ["x"]

    def test_run_until_advances_clock_past_last_event(self, sim):
        sim.schedule(0.5, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_step_returns_false_when_drained(self, sim):
        assert sim.step() is False

    def test_peek_reports_next_event_time(self, sim):
        assert sim.peek() is None
        sim.call_later(1.0, lambda: None).cancel()
        assert sim.peek() is None
        sim.schedule(4.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.call_later(1.5, lambda: None).cancel()  # ahead of the live ones
        assert sim.peek() == 2.0

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
