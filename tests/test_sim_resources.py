"""Resource contention, CPU/link accounting, FIFO stores."""

import pytest

from repro.sim import CPU, Link, Resource, SimulationError, Store, start
from conftest import drive


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        a, b, c = res.acquire(), res.acquire(), res.acquire()
        assert a.triggered and b.triggered and not c.triggered

    def test_fifo_handoff_on_release(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        first, second = res.acquire(), res.acquire()
        res.release()
        sim.run()
        assert first.triggered and not second.triggered

    def test_release_idle_rejected(self, sim):
        res = Resource(sim)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_queue_length(self, sim):
        res = Resource(sim, capacity=1)
        res.acquire()
        res.acquire()
        res.acquire()
        assert res.queue_length == 2

    def test_busy_time_counts_resource_seconds(self, sim):
        res = Resource(sim, capacity=2)

        def user(hold):
            yield from res.use(hold)

        start(sim, user(2.0))
        start(sim, user(3.0))
        sim.run()
        assert res.busy_time() == pytest.approx(5.0)

    def test_utilization_window(self, sim):
        res = Resource(sim, capacity=1)

        def user():
            yield from res.use(1.0)

        snap = (res.busy_time(), sim.now)
        start(sim, user())
        sim.run(until=4.0)
        assert res.utilization(*snap) == pytest.approx(0.25)


class TestCPU:
    def test_execute_serializes_work(self, sim):
        cpu = CPU(sim, cores=1)
        done = []

        def job(name, cost):
            yield from cpu.execute(cost)
            done.append((name, sim.now))

        start(sim, job("a", 1.0))
        start(sim, job("b", 1.0))
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_multicore_runs_in_parallel(self, sim):
        cpu = CPU(sim, cores=2)

        def job():
            yield from cpu.execute(1.0)

        start(sim, job())
        start(sim, job())
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_zero_cost_is_free(self, sim):
        cpu = CPU(sim)

        def job():
            yield from cpu.execute(0.0)
            return sim.now

        assert drive(sim, job()) == 0.0

    def test_negative_cost_rejected(self, sim):
        cpu = CPU(sim)

        def job():
            yield from cpu.execute(-1.0)

        with pytest.raises(SimulationError):
            drive(sim, job())

    def test_execute_books_at_call_and_returns_plain_delay(self, sim):
        # The hold is booked when execute is called; what comes back is
        # the plain delay to yield, or nothing at zero cost.
        cpu = CPU(sim)
        assert cpu.execute(1500.0 * 1e-9) == (1.5e-6,)
        assert cpu.busy_time() == 0.0
        assert cpu.execute(1.0) == (1.0 + 1.5e-6,)  # queued behind it
        assert cpu.execute(0.0) == ()

        def job():
            yield from cpu.execute(1500.0 * 1e-9)

        drive(sim, job())
        assert sim.now == pytest.approx(1.0 + 3e-6)


class TestLink:
    def test_serialization_delay(self, sim):
        link = Link(sim, bandwidth_bps=1e9, latency_s=0.0)
        assert link.serialization_delay(125_000_000) == pytest.approx(1.0)

    def test_transmit_includes_latency(self, sim):
        link = Link(sim, bandwidth_bps=8e6, latency_s=0.5)

        def send():
            yield from link.transmit(1_000_000)
            return sim.now

        assert drive(sim, send()) == pytest.approx(1.5)

    def test_transmissions_serialize_fifo(self, sim):
        link = Link(sim, bandwidth_bps=8e6, latency_s=0.0)
        done = []

        def send(name):
            yield from link.transmit(1_000_000)
            done.append((name, round(sim.now, 6)))

        start(sim, send("a"))
        start(sim, send("b"))
        sim.run()
        assert done == [("a", 1.0), ("b", 2.0)]

    def test_bytes_counted(self, sim):
        link = Link(sim, bandwidth_bps=1e9)

        def send():
            yield from link.transmit(5000)
            yield from link.transmit(7000)

        drive(sim, send())
        assert link.bytes_sent == 12000

    def test_invalid_bandwidth_rejected(self, sim):
        with pytest.raises(SimulationError):
            Link(sim, bandwidth_bps=0)

    def test_negative_size_rejected(self, sim):
        link = Link(sim, bandwidth_bps=1e9)

        def send():
            yield from link.transmit(-1)

        with pytest.raises(SimulationError):
            drive(sim, send())


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")

        def consumer():
            value = yield store.get()
            return value

        assert drive(sim, consumer()) == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            got.append((yield store.get()))

        start(sim, consumer())
        sim.schedule(2.0, store.put, "late")
        sim.run()
        assert got == ["late"]
        assert sim.now == 2.0

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        got = []

        def consumer():
            for _ in range(5):
                got.append((yield store.get()))

        drive(sim, consumer())
        assert got == [0, 1, 2, 3, 4]

    def test_waiting_getters_served_in_order(self, sim):
        store = Store(sim)
        got = []

        def consumer(name):
            value = yield store.get()
            got.append((name, value))

        start(sim, consumer("first"))
        start(sim, consumer("second"))
        sim.schedule(1.0, store.put, "x")
        sim.schedule(1.0, store.put, "y")
        sim.run()
        assert got == [("first", "x"), ("second", "y")]

    def test_len_reports_queued_items(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
