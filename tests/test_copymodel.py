"""Cost model arithmetic and the copy accountant."""

import pytest

from repro.copymodel import (
    CopyAccountant,
    CopyDiscipline,
    CostModel,
    DEFAULT_COSTS,
    physical_copies,
)
from repro.obs.trace import TraceBus
from repro.sim import CPU
from conftest import CopyWindow, drive


class TestCostModel:
    def test_memcpy_linear_in_bytes(self):
        costs = CostModel()
        small = costs.memcpy_ns(1000)
        large = costs.memcpy_ns(2000)
        assert large - small == pytest.approx(1000 * costs.memcpy_ns_per_byte)

    def test_udp_frames_single(self):
        costs = CostModel()
        assert costs.udp_frames(1000) == 1

    def test_udp_frames_fragmentation(self):
        costs = CostModel()
        # 32 KB + 8 B UDP header over 1480-byte fragments.
        assert costs.udp_frames(32768) == -(-32776 // 1480)

    def test_tcp_mss(self):
        costs = CostModel()
        assert costs.tcp_mss == 1500 - 20 - 32

    def test_tcp_segments(self):
        costs = CostModel()
        assert costs.tcp_segments(costs.tcp_mss) == 1
        assert costs.tcp_segments(costs.tcp_mss + 1) == 2

    def test_wire_bytes_exceed_payload(self):
        costs = CostModel()
        assert costs.udp_wire_bytes(4096) > 4096
        assert costs.tcp_wire_bytes(4096) > 4096

    def test_with_overrides_is_functional(self):
        costs = CostModel()
        tweaked = costs.with_overrides(memcpy_ns_per_byte=9.0)
        assert tweaked.memcpy_ns_per_byte == 9.0
        assert costs.memcpy_ns_per_byte == 3.0

    def test_zero_length_frames_still_one(self):
        assert CostModel().udp_frames(0) == 1

    def test_defaults_are_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_COSTS.memcpy_ns_per_byte = 1.0  # type: ignore


class TestAccountant:
    def make(self, sim):
        cpu = CPU(sim)
        return CopyAccountant(cpu, CostModel(), owner="host-x"), cpu

    def test_physical_copy_charges_per_byte(self, sim):
        acct, cpu = self.make(sim)

        def job():
            yield from acct.physical_copy(10_000, "cat")

        drive(sim, job())
        expected = CostModel().memcpy_ns(10_000) * 1e-9
        assert cpu.busy_time() == pytest.approx(expected)

    def test_logical_copy_charges_per_key(self, sim):
        acct, cpu = self.make(sim)

        def job():
            yield from acct.logical_copy("cat", nkeys=8)

        drive(sim, job())
        assert cpu.busy_time() == pytest.approx(8 * 150 * 1e-9)

    def test_counters_by_category(self, sim):
        acct, _ = self.make(sim)

        def job():
            yield from acct.physical_copy(100, "alpha")
            yield from acct.physical_copy(50, "alpha")
            yield from acct.logical_copy("beta")

        drive(sim, job())
        snap = acct.counters.snapshot()
        assert snap["copies.physical.alpha"] == 2
        assert snap["copies.physical_bytes"] == 150
        assert snap["copies.logical.beta"] == 1

    def test_trace_records_owner(self, sim):
        acct, _ = self.make(sim)

        def job():
            yield from acct.physical_copy(10, "c")

        with CopyWindow(sim) as window:
            drive(sim, job())
        assert window.events[0].args["host"] == "host-x"
        assert window.physical_copies(where="host-x") == 1
        assert window.physical_copies(where="elsewhere") == 0

    def test_move_zero_charges_nothing(self, sim):
        acct, cpu = self.make(sim)

        def job():
            yield from acct.move(CopyDiscipline.ZERO, 4096, "c")

        drive(sim, job())
        assert cpu.busy_time() == 0.0
        assert acct.counters["copies.elided"].value == 1

    def test_move_metadata_always_physical(self, sim):
        acct, _ = self.make(sim)

        def job():
            yield from acct.move(CopyDiscipline.LOGICAL, 512, "meta",
                                 is_metadata=True)

        with CopyWindow(sim) as window:
            drive(sim, job())
        assert window.events[0].name == "copies.physical"
        assert window.events[0].args["is_metadata"]

    def test_checksum_cached_is_free(self, sim):
        acct, cpu = self.make(sim)

        def job():
            yield from acct.checksum(4096, cached=True)

        drive(sim, job())
        assert cpu.busy_time() == 0.0
        assert acct.counters["checksum.inherited"].value == 1

    def test_checksum_computed_charges(self, sim):
        acct, cpu = self.make(sim)

        def job():
            yield from acct.checksum(4096)

        drive(sim, job())
        assert cpu.busy_time() == pytest.approx(4096 * 2.0 * 1e-9)


class TestPhysicalCopies:
    def test_copy_classification(self):
        bus = TraceBus().enable()
        bus.emit("copies.physical", cat="copies", host="server",
                 category="a", nbytes=100, is_metadata=False)
        bus.emit("copies.physical", cat="copies", host="storage",
                 category="b", nbytes=200, is_metadata=True)
        bus.emit("copies.logical", cat="copies", host="server",
                 category="c", nkeys=4, nbytes=0)
        bus.emit("net.send", cat="net", host="server")
        assert physical_copies(bus.events) == 1
        assert physical_copies(bus.events, regular_only=False) == 2
        assert physical_copies(bus.events, where="storage") == 0
        assert physical_copies(bus.events, "storage", regular_only=False) == 1
        assert physical_copies(bus.events[2:]) == 0
