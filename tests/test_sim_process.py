"""Process semantics: yields, joins, failures."""

import pytest

from repro.copymodel import CopyAccountant, CopyDiscipline, CostModel
from repro.sim import CPU, SimulationError, Simulator, start
from repro.sim.engine import dispatch_count
from conftest import drive


class TestBasics:
    def test_returns_generator_value(self, sim):
        def gen():
            yield 1.0
            return "result"

        assert drive(sim, gen()) == "result"

    def test_delay_yield_advances_clock(self, sim):
        def gen():
            yield 2.5
            yield 1.5
            return sim.now

        assert drive(sim, gen()) == 4.0

    def test_event_yield_receives_value(self, sim):
        def gen():
            value = yield sim.timeout(1.0, "payload")
            return value

        assert drive(sim, gen()) == "payload"

    def test_join_another_process(self, sim):
        def child():
            yield 3.0
            return 99

        def parent():
            result = yield start(sim, child())
            return result

        assert drive(sim, parent()) == 99

    def test_two_processes_interleave(self, sim):
        order = []

        def worker(name, delay):
            yield delay
            order.append(name)
            yield delay
            order.append(name)

        start(sim, worker("slow", 2.0))
        start(sim, worker("fast", 0.5))
        sim.run()
        assert order == ["fast", "fast", "slow", "slow"]

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            start(sim, "not a generator")  # type: ignore[arg-type]

    def test_bad_yield_type_fails_process(self, sim):
        def gen():
            yield "nonsense"

        proc = start(sim, gen())
        proc.add_callback(lambda e: None)  # joined: no re-raise
        sim.run()
        assert proc.failed
        assert isinstance(proc.value, SimulationError)


class TestPlainDelayFastPath:
    """A non-negative float yield is one push at ``now + delay``; every
    other delay keeps the checked path."""

    def test_negative_float_delay_fails_process(self, sim):
        def gen():
            yield -1.0

        with pytest.raises(SimulationError, match="negative delay"):
            drive(sim, gen())

    def test_resume_lands_at_now_plus_delay(self, sim):
        def gen():
            yield 1.0
            yield 0.5
            return sim.now

        proc = start(sim, gen())
        before = dispatch_count()
        sim.run()
        assert proc.value == 1.5 and sim.now == 1.5
        assert dispatch_count() - before == 2

    def test_int_delay_and_zero_charge_keep_dispatches_and_clock(self, sim):
        acct = CopyAccountant(CPU(sim), CostModel())

        def gen():
            yield 2                       # an int: one dispatch
            yield from acct.compute(0.0)  # no cost: no dispatch
            yield from acct.move(CopyDiscipline.ZERO, 4096, "x")
            return sim.now

        proc = start(sim, gen())
        before = dispatch_count()
        sim.run()
        assert proc.value == 2.0 and type(sim.now) is float
        assert dispatch_count() - before == 1

    def test_a_charge_is_not_a_process(self, sim):
        acct = CopyAccountant(CPU(sim), CostModel())
        with pytest.raises(SimulationError, match="Process needs a generator"):
            start(sim, acct.compute(5.0))


class TestFailure:
    def test_exception_propagates_to_joiner(self, sim):
        def child():
            yield 1.0
            raise RuntimeError("inner")

        def parent():
            try:
                yield start(sim, child())
            except RuntimeError as exc:
                return f"caught {exc}"
            return "not caught"

        assert drive(sim, parent()) == "caught inner"

    def test_unjoined_failure_is_loud(self, sim):
        def gen():
            yield 0.5
            raise ValueError("lost?")

        start(sim, gen())
        with pytest.raises(ValueError, match="lost"):
            sim.run()

    def test_failed_event_thrown_into_generator(self, sim):
        ev = sim.event()
        sim.schedule(1.0, ev.fail, KeyError("nope"))

        def gen():
            try:
                yield ev
            except KeyError:
                return "handled"

        assert drive(sim, gen()) == "handled"

    def test_process_is_event_with_value(self, sim):
        def gen():
            yield 1.0
            return 5

        proc = start(sim, gen())
        sim.run()
        assert proc.triggered and proc.value == 5


class TestNesting:
    def test_yield_from_subroutine(self, sim):
        def sub(n):
            yield float(n)
            return n * 2

        def main():
            total = 0
            for i in range(1, 4):
                total += yield from sub(i)
            return total

        assert drive(sim, main()) == 12
        assert sim.now == 6.0

    def test_deeply_nested_yield_from(self, sim):
        def level(n):
            if n == 0:
                yield 0.1
                return 1
            value = yield from level(n - 1)
            return value + 1

        assert drive(sim, level(20)) == 21
