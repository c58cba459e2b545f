"""Counters, throughput meters, utilization windows, the meter set."""

import pytest

from repro.sim import (
    CPU,
    Counter,
    CounterSet,
    MeterSet,
    Simulator,
    ThroughputMeter,
    UtilizationWindow,
    start,
)


class TestCounter:
    def test_value_since_reset(self):
        c = Counter("x")
        c.add(5)
        c.reset()
        c.add(3)
        assert c.value == 3
        assert c.total == 8

    def test_counterset_lazy_creation(self):
        cs = CounterSet()
        cs.add("a.b", 2)
        assert cs["a.b"].value == 2
        assert "a.b" in cs
        assert "other" not in cs

    def test_counterset_reset_all(self):
        cs = CounterSet()
        cs.add("x")
        cs.add("y", 4)
        cs.reset()
        assert cs.snapshot() == {"x": 0, "y": 0}
        assert cs.totals() == {"x": 1, "y": 4}

    def test_snapshot_sorted(self):
        cs = CounterSet()
        cs.add("b")
        cs.add("a")
        assert list(cs.snapshot()) == ["a", "b"]


class TestThroughputMeter:
    def test_rates_over_window(self, sim):
        meter = ThroughputMeter(sim)
        meter.record(1024 * 1024, ops=2)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert meter.mb_per_second() == pytest.approx(0.5)
        assert meter.ops_per_second() == pytest.approx(1.0)

    def test_reset_restarts_window(self, sim):
        meter = ThroughputMeter(sim)
        meter.record(999)
        sim.schedule(1.0, lambda: None)
        sim.run()
        meter.reset()
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        meter.record(2 << 20)
        assert meter.mb_per_second() == pytest.approx(1.0)

    def test_zero_window_is_zero(self, sim):
        meter = ThroughputMeter(sim)
        meter.record(100)
        assert meter.bytes_per_second() == 0.0


class TestUtilization:
    def test_window_utilization(self, sim):
        cpu = CPU(sim)
        window = UtilizationWindow(cpu, sim)

        def job():
            yield from cpu.execute(1.0)

        start(sim, job())
        sim.run(until=2.0)
        assert window.utilization() == pytest.approx(0.5)

    def test_reset_discards_history(self, sim):
        cpu = CPU(sim)
        window = UtilizationWindow(cpu, sim)

        def job():
            yield from cpu.execute(1.0)

        start(sim, job())
        sim.run(until=1.0)
        window.reset()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert window.utilization() == pytest.approx(0.0)


class TestMeterSet:
    def test_reset_resets_everything(self, sim):
        meters = MeterSet(sim)
        cpu = CPU(sim)
        meters.watch("cpu", cpu)
        meters.counters.add("ops", 10)
        meters.throughput.record(1000)
        meters.latency.record(1.0)

        def job():
            yield from cpu.execute(1.0)

        start(sim, job())
        sim.run(until=1.0)
        meters.reset()
        assert meters.counters["ops"].value == 0
        assert meters.throughput.bytes.value == 0
        assert meters.latency.count == 0
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert meters.utilization("cpu") == pytest.approx(0.0)
