"""The memory-budget arbiter: specs, leases, and the controller loop."""

import pickle

import pytest

from repro.cache import CacheKernel, CacheStallError
from repro.cache.arbiter import (ArbiterSpec, GhostGradient, MemoryArbiter,
                                 StaticSplit, make_arbiter)
from repro.cache.kernel import BudgetWindow, KernelMetrics
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.sim.stats import CounterSet


class Lease:
    """A scriptable cache stand-in: metrics the test can bump, a resize
    that records calls and returns scripted victims."""

    def __init__(self, name, registry=None):
        self.name = name
        self.metrics = KernelMetrics.declare(
            registry if registry is not None else MetricsRegistry(), name)
        self.resizes = []
        self.victims = []
        self.written_back = []
        self.raise_stall = False

    def resize(self, new_bytes):
        if self.raise_stall:
            raise CacheStallError(f"{self.name} pinned solid")
        self.resizes.append(new_bytes)
        out, self.victims = self.victims, []
        return out

    def writeback(self, item):
        self.written_back.append(item)
        yield from ()

    def ghosts(self, n):
        self.metrics.ghost_hit._total += n


def ghost_spec(**kw):
    base = dict(kind="ghost", tick_s=0.01, step_fraction=0.05,
                hysteresis=1.5, min_signal=4)
    base.update(kw)
    return ArbiterSpec(**base)


def two_lease_arbiter(spec=None, total=200, floors=(10, 10)):
    arb = make_arbiter(spec if spec is not None else ghost_spec(), total,
                       counters=CounterSet())
    a, b = Lease("a"), Lease("b")
    arb.register("a", total // 2, a.resize, a.metrics,
                 writeback=a.writeback, floor_bytes=floors[0])
    arb.register("b", total - total // 2, b.resize, b.metrics,
                 writeback=b.writeback, floor_bytes=floors[1])
    return arb, a, b


class TestArbiterSpec:
    def test_defaults_are_static(self):
        spec = ArbiterSpec()
        assert spec.kind == "static" and not spec.adaptive

    def test_ghost_kind_is_adaptive(self):
        assert ghost_spec().adaptive

    @pytest.mark.parametrize("bad", [
        dict(kind="fuzzy"), dict(tick_s=0.0), dict(tick_s=-1.0),
        dict(step_fraction=0.0), dict(step_fraction=0.6),
        dict(hysteresis=0.9), dict(min_signal=0),
        dict(floor_fraction=-0.1), dict(floor_fraction=1.0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ArbiterSpec(**bad)

    def test_picklable_and_hashable(self):
        spec = ghost_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(ghost_spec())

    def test_make_arbiter_picks_kind(self):
        assert isinstance(make_arbiter(ArbiterSpec(), 100), StaticSplit)
        assert isinstance(make_arbiter(ghost_spec(), 100), GhostGradient)


class TestRegistration:
    def test_overcommit_rejected(self):
        arb = MemoryArbiter(ArbiterSpec(), 100)
        lease = Lease("a")
        arb.register("a", 80, lease.resize, lease.metrics)
        with pytest.raises(ValueError, match="overcommit"):
            arb.register("b", 21, lease.resize, lease.metrics)

    def test_duplicate_name_rejected(self):
        arb = MemoryArbiter(ArbiterSpec(), 100)
        lease = Lease("a")
        arb.register("a", 50, lease.resize, lease.metrics)
        with pytest.raises(ValueError, match="already registered"):
            arb.register("a", 50, lease.resize, lease.metrics)

    def test_partition_must_be_exact(self):
        arb = MemoryArbiter(ArbiterSpec(), 100)
        lease = Lease("a")
        arb.register("a", 60, lease.resize, lease.metrics)
        with pytest.raises(ValueError, match="every byte"):
            arb.start(Simulator())

    def test_register_after_start_rejected(self):
        arb = MemoryArbiter(ArbiterSpec(), 100)
        lease = Lease("a")
        arb.register("a", 100, lease.resize, lease.metrics)
        arb.start(Simulator())
        with pytest.raises(RuntimeError, match="started"):
            arb.register("b", 0, lease.resize, lease.metrics)

    def test_default_floor_from_fraction_and_clamp(self):
        arb = MemoryArbiter(ArbiterSpec(floor_fraction=0.25), 100)
        lease = Lease("a")
        assert arb.register("a", 80, lease.resize, lease.metrics
                            ).floor_bytes == 20
        assert arb.register("b", 20, lease.resize, lease.metrics,
                            floor_bytes=999).floor_bytes == 20

    def test_budget_gauges_installed(self):
        arb, _, _ = two_lease_arbiter()
        assert arb.lease("a").gauge.value == 100
        assert arb.lease("b").gauge.value == 100


class TestStaticSplit:
    def test_schedules_nothing(self):
        sim = Simulator()
        arb, a, b = two_lease_arbiter(spec=ArbiterSpec())
        arb.start(sim)
        sim.run()
        assert sim.now == 0.0
        assert a.resizes == [] and b.resizes == []


class TestGhostGradient:
    def run_ticks(self, arb, n=1):
        sim = Simulator()
        arb.start(sim)
        sim.run(until=n * arb.spec.tick_s + 1e-9)
        return sim

    def test_single_lease_never_ticks(self):
        sim = Simulator()
        arb = make_arbiter(ghost_spec(), 100)
        lease = Lease("a")
        arb.register("a", 100, lease.resize, lease.metrics)
        arb.start(sim)
        sim.run()
        assert sim.now == 0.0

    def test_bytes_move_to_ghost_demand(self):
        arb, a, b = two_lease_arbiter()
        a.ghosts(50)
        self.run_ticks(arb)
        # step = 5% of 200 = 10 bytes, b -> a.
        assert arb.lease("a").budget_bytes == 110
        assert arb.lease("b").budget_bytes == 90
        assert b.resizes == [90]       # donor shrinks...
        assert a.resizes == [110]      # ...recipient re-targets (no evict)
        assert arb.counters["arbiter.moves"].total == 1
        assert arb.counters["arbiter.moved_bytes"].total == 10
        assert arb.lease("a").gauge.value == 110

    def test_budget_conserved_over_many_ticks(self):
        arb, a, b = two_lease_arbiter()
        sim = Simulator()
        arb.start(sim)
        for tick in range(1, 21):
            a.ghosts(30)
            sim.run(until=tick * arb.spec.tick_s + 1e-9)
        total = sum(l.budget_bytes for l in arb.leases)
        assert total == arb.total_bytes
        # a cannot push b below its floor.
        assert arb.lease("b").budget_bytes >= arb.lease("b").floor_bytes

    def test_min_signal_gates_noise(self):
        arb, a, _ = two_lease_arbiter()
        a.ghosts(3)  # below min_signal=4
        self.run_ticks(arb)
        assert arb.lease("a").budget_bytes == 100

    def test_hysteresis_gates_small_gradients(self):
        arb, a, b = two_lease_arbiter()
        a.ghosts(5)
        b.ghosts(4)  # demand ratio 1.25 < hysteresis 1.5
        self.run_ticks(arb)
        assert arb.lease("a").budget_bytes == 100

    def test_equal_demand_moves_nothing(self):
        arb, a, b = two_lease_arbiter()
        a.ghosts(10)
        b.ghosts(10)
        self.run_ticks(arb)
        assert arb.lease("a").budget_bytes == 100

    def test_donor_at_floor_cannot_donate(self):
        arb, a, b = two_lease_arbiter(floors=(10, 100))
        a.ghosts(50)
        self.run_ticks(arb)
        assert arb.lease("b").budget_bytes == 100

    def test_windowed_signal_resets_each_tick(self):
        arb, a, _ = two_lease_arbiter()
        a.ghosts(50)
        self.run_ticks(arb, n=3)  # ghosts seen once, then quiet
        assert arb.counters["arbiter.moves"].total == 1

    def test_dirty_victims_written_back(self):
        arb, a, b = two_lease_arbiter()
        a.ghosts(50)
        b.victims = ["dirty-item"]
        self.run_ticks(arb)
        assert b.written_back == ["dirty-item"]

    def test_missing_writeback_is_an_error(self):
        spec = ghost_spec()
        arb = make_arbiter(spec, 200, counters=CounterSet())
        a, b = Lease("a"), Lease("b")
        arb.register("a", 100, a.resize, a.metrics, floor_bytes=10)
        arb.register("b", 100, b.resize, b.metrics, floor_bytes=10)
        a.ghosts(50)
        b.victims = ["dirty-item"]
        with pytest.raises(RuntimeError, match="no writeback"):
            self.run_ticks(arb)

    def test_stall_aborts_counted_but_move_completes(self):
        arb, a, b = two_lease_arbiter()
        a.ghosts(50)
        b.raise_stall = True
        self.run_ticks(arb)
        assert arb.counters["arbiter.stall_aborts"].total == 1
        assert arb.lease("a").budget_bytes == 110
        assert arb.lease("b").budget_bytes == 90


class TestBudgetWindow:
    def test_deltas_and_rearm(self):
        metrics = KernelMetrics.declare(MetricsRegistry(), "w")
        window = BudgetWindow(metrics)
        metrics.ghost_hit._total += 5
        metrics.hit._total += 2
        metrics.miss._total += 7
        assert window.advance() == (5.0, 2.0, 7.0)
        assert window.advance() == (0.0, 0.0, 0.0)

    def test_survives_counter_reset(self):
        metrics = KernelMetrics.declare(MetricsRegistry(), "w")
        window = BudgetWindow(metrics)
        metrics.ghost_hit._total += 5
        window.advance()
        # A measurement-boundary reset moves the mark, not the total —
        # the next window must not see a negative delta.
        metrics.ghost_hit.reset()
        metrics.ghost_hit._total += 3
        assert window.advance()[0] == 3.0


class TestGhostAdmit:
    class Item:
        def __init__(self, admit):
            self.admit = admit
            self.dirty = False
            self.pinned = False

    def test_rejected_victims_leave_no_ghost(self):
        k = CacheKernel("t", 2)
        k.set_ghost_admit(lambda item: item.admit)
        k.insert("keep-out", self.Item(False), 1)
        k.insert("keep-in", self.Item(True), 1)
        k.make_room(2)  # evicts both
        miss = k.lookup_in({})  # an index with every key absent
        miss("keep-out")
        assert k.metrics.ghost_hit.total == 0
        miss("keep-in")
        assert k.metrics.ghost_hit.total == 1

    def test_default_admits_everything(self):
        k = CacheKernel("t", 1)
        k.insert("x", self.Item(False), 1)
        k.make_room(1)
        k.lookup_in({})("x")
        assert k.metrics.ghost_hit.total == 1
