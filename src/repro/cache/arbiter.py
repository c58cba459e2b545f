"""The memory-budget arbiter: one owner for the machine's cache bytes.

The paper sizes NCache *statically*: the FS buffer cache is squeezed
under NCache's pinned buffer pool once, at configuration time
(§3.4/§4.1), and the split never moves again.  Every ingredient needed
to do better already exists in this tree — each
:class:`~repro.cache.kernel.CacheKernel` keeps a bounded ghost list
feeding a ``cache.<name>.ghost_hit`` estimator, and the kernel exposes
``resize`` — so this module lifts ARC-style ghost adaptation from the
*intra*-cache level (``repro.cache.policy``'s ARC) to the *inter*-cache
level, the dynamic cache/backend split NetCAS applies to networked
storage.

Ownership model
---------------

A :class:`MemoryArbiter` owns ``total_bytes`` — the machine's entire
cache budget.  Each cache registers a :class:`BudgetLease` carrying its
initial budget, an eviction floor, its ``resize`` entry point and a
writeback routine for the dirty victims a shrink produces.  The
registered budgets must sum exactly to the total (leases partition the
machine; there is no unowned slack).  After registration, *all* budget
movement flows through the arbiter — direct ``resize`` calls outside
``repro.cache`` (and the two cache adapters) fail the ``budget-lease``
rule of ``tests/test_tree_invariants.py``.

Two arbiters implement the policy seam:

* :class:`StaticSplit` — the paper's configuration-time squeeze.  It
  schedules **zero** simulator events and never calls ``resize``; a
  testbed built with it is byte-identical to the pre-arbiter tree
  (locked by ``tests/test_static_split_identity.py``).
* :class:`GhostGradient` — a periodic feedback controller.  Every
  ``tick_s`` of simulated time it advances a per-lease
  :class:`~repro.cache.kernel.BudgetWindow`, computes each cache's
  marginal value of memory from its windowed ghost-hit density, and
  moves a bounded step of bytes from the lowest-value cache to the
  highest-value one.

Controller math and stability
-----------------------------

A ghost hit is a miss that the cache would have served had it been
somewhat larger — ghost lists are bounded by the live entry count, so
windowed ghost hits estimate the misses recoverable by roughly doubling
the cache.  Dividing by the lease's current budget yields a *density*:
misses saved per extra byte granted.  Entry size cancels (a bigger
entry means fewer ghosts per byte but more bytes saved per ghost), so
densities are comparable across caches with different entry footprints:

    demand_i = ghost_hits_i / budget_i

One correction exists for the stacked-cache mirage — under NCache the
FS buffer cache holds key-only placeholder pages whose data still lives
in the chunk store, so most bcache ghost hits would not have saved a
*backend* read.  **Ghost admission**: the kernel's ``set_ghost_admit``
predicate classifies victims at eviction time.  Under an adaptive
arbiter the testbed admits metadata and dirty pages to bcache's ghost
list but not clean placeholders — a placeholder's payload is already
resident in the chunk store, so re-missing it costs no backend read,
whereas metadata never enters the chunk store at all and a dirty page's
payload only reaches it once the eviction's writeback remaps.  What
remains is bcache's standalone value.

Movement is damped three ways, which is the stability argument
(DESIGN.md §12): a move happens only when the winner's demand exceeds
the loser's by a multiplicative ``hysteresis`` factor *and* the winner
saw at least ``min_signal`` ghost hits this window (quiet caches cannot
attract bytes on noise); each move is at most ``step_fraction`` of the
total budget, so the split needs many consecutive wins to travel far
and one bad window cannot thrash it; and no lease shrinks below its
``floor_bytes``, so pinned/dirty working sets always fit and eviction
stalls are unreachable in practice (a stall during a shrink is caught
and simply ends that move early).  Budget is conserved exactly: bytes
leave one lease and arrive at another in the same tick, and the lease
budgets sum to ``total_bytes`` after every move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from ..sim.stats import CounterSet
from .kernel import BudgetWindow, CacheStallError, KernelMetrics

ARBITER_KINDS = ("static", "ghost")


@dataclass(frozen=True)
class ArbiterSpec:
    """Declarative arbiter configuration (frozen, hashable, picklable).

    Carried on :class:`~repro.servers.config.TestbedConfig` /
    :class:`~repro.servers.spec.TestbedSpec` so fleet specs and the
    parallel harness can ship it across process boundaries.  The
    controller fields are ignored by ``kind="static"``.
    """

    kind: str = "static"
    #: controller period in *simulated* seconds.
    tick_s: float = 0.01
    #: per-move ceiling, as a fraction of the total budget.
    step_fraction: float = 0.05
    #: multiplicative demand gap required before bytes move.
    hysteresis: float = 1.5
    #: minimum windowed ghost hits before a cache may attract bytes.
    min_signal: int = 8
    #: default per-lease eviction floor, as a fraction of the lease's
    #: *initial* budget (overridable per lease at registration).
    floor_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in ARBITER_KINDS:
            raise ValueError(f"unknown arbiter kind {self.kind!r}; "
                             f"expected one of {ARBITER_KINDS}")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if not 0 < self.step_fraction <= 0.5:
            raise ValueError("step_fraction must be in (0, 0.5]")
        if self.hysteresis < 1.0:
            raise ValueError("hysteresis must be >= 1.0")
        if self.min_signal < 1:
            raise ValueError("min_signal must be >= 1")
        if not 0 <= self.floor_fraction < 1.0:
            raise ValueError("floor_fraction must be in [0, 1)")

    @property
    def adaptive(self) -> bool:
        return self.kind != "static"


class BudgetLease:
    """One cache's registration with the arbiter.

    The lease records the cache's current budget (the arbiter's view is
    authoritative — the cache's ``capacity_bytes`` mirrors it), its
    floor, and the three callables the controller needs: ``resize``
    (returns the dirty victims of a shrink), ``writeback`` (a simulation
    generator flushing one dirty victim) and the kernel's metric family
    for the ghost/hit/miss window.
    """

    __slots__ = ("name", "budget_bytes", "floor_bytes", "resize",
                 "writeback", "metrics", "window", "gauge")

    def __init__(self, name: str, budget_bytes: int, floor_bytes: int,
                 resize: Callable[[int], List[Any]],
                 writeback: Optional[Callable[[Any], Generator]],
                 metrics: KernelMetrics) -> None:
        self.name = name
        self.budget_bytes = budget_bytes
        self.floor_bytes = floor_bytes
        self.resize = resize
        self.writeback = writeback
        self.metrics = metrics
        self.window = BudgetWindow(metrics)
        self.gauge = None  # installed by the arbiter at registration


class MemoryArbiter:
    """Owner of the total cache budget; base of both arbiter kinds."""

    def __init__(self, spec: ArbiterSpec, total_bytes: int,
                 counters: Optional[CounterSet] = None,
                 trace=None) -> None:
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.spec = spec
        self.total_bytes = total_bytes
        self.counters = counters if counters is not None else CounterSet()
        self.trace = trace
        self._leases: List[BudgetLease] = []
        self._by_name: Dict[str, BudgetLease] = {}
        self._started = False

    # -- registration -------------------------------------------------------

    def register(self, name: str, budget_bytes: int,
                 resize: Callable[[int], List[Any]],
                 metrics: KernelMetrics, *,
                 writeback: Optional[Callable[[Any], Generator]] = None,
                 floor_bytes: Optional[int] = None) -> BudgetLease:
        """Lease ``budget_bytes`` of the total to cache ``name``.

        Registration order is the controller's iteration order, so it
        must be deterministic (the testbed registers bcache first, then
        ncache).
        """
        if self._started:
            raise RuntimeError("arbiter already started")
        if name in self._by_name:
            raise ValueError(f"lease {name!r} already registered")
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        if sum(l.budget_bytes for l in self._leases) + budget_bytes \
                > self.total_bytes:
            raise ValueError(
                f"lease {name!r} ({budget_bytes}B) overcommits the "
                f"arbiter total ({self.total_bytes}B)")
        if floor_bytes is None:
            floor_bytes = int(budget_bytes * self.spec.floor_fraction)
        floor_bytes = min(floor_bytes, budget_bytes)
        lease = BudgetLease(name, budget_bytes, floor_bytes, resize,
                            writeback, metrics)
        lease.gauge = self.counters.registry.gauge(
            f"arbiter.budget.{name}", unit="bytes")
        lease.gauge.set(budget_bytes)
        self._leases.append(lease)
        self._by_name[name] = lease
        return lease

    def lease(self, name: str) -> BudgetLease:
        return self._by_name[name]

    @property
    def leases(self) -> List[BudgetLease]:
        return list(self._leases)

    def _seal(self) -> None:
        """Validate the finished registration set."""
        leased = sum(l.budget_bytes for l in self._leases)
        if leased != self.total_bytes:
            raise ValueError(
                f"leases cover {leased}B of a {self.total_bytes}B total; "
                f"the arbiter must own every byte")

    # -- lifecycle ----------------------------------------------------------

    def start(self, sim) -> None:
        """Validate the partition and (for adaptive kinds) begin
        ticking on ``sim``."""
        self._seal()
        self._started = True


class StaticSplit(MemoryArbiter):
    """The paper's static squeeze as a degenerate arbiter.

    Budgets are fixed at registration and never move; :meth:`start`
    schedules nothing, so a StaticSplit testbed dispatches exactly the
    same events as the pre-arbiter tree.
    """


class GhostGradient(MemoryArbiter):
    """Ghost-hit-gradient feedback controller; see the module doc."""

    def start(self, sim) -> None:
        super().start(sim)
        if len(self._leases) < 2:
            return  # nothing to trade against
        from ..sim.process import start as start_process
        start_process(sim, self._run(sim), name="arbiter")

    def _run(self, sim) -> Generator:
        spec = self.spec
        while True:
            yield sim.timeout(spec.tick_s)
            yield from self._tick(sim)

    # -- one controller period ---------------------------------------------

    def _demands(self):
        """Windowed demand per lease (registration order) + raw windows."""
        windows = {lease.name: lease.window.advance()
                   for lease in self._leases}
        demands = []
        for lease in self._leases:
            ghost, _, _ = windows[lease.name]
            demands.append(ghost / max(1, lease.budget_bytes))
        return demands, windows

    def _pick(self, demands: List[float], windows):
        """(recipient, donor) for this tick, or (None, None).

        First-maximum / first-minimum on strict comparison keeps ties
        deterministic under the fixed registration order.
        """
        recipient = donor = None
        r_demand = d_demand = 0.0
        for lease, demand in zip(self._leases, demands):
            if recipient is None or demand > r_demand:
                recipient, r_demand = lease, demand
            headroom = lease.budget_bytes - lease.floor_bytes
            if headroom > 0 and (donor is None or demand < d_demand):
                donor, d_demand = lease, demand
        if recipient is None or donor is None or recipient is donor:
            return None, None
        ghost, _, _ = windows[recipient.name]
        if ghost < self.spec.min_signal:
            return None, None
        if r_demand <= self.spec.hysteresis * d_demand:
            return None, None
        return recipient, donor

    def _tick(self, sim) -> Generator:
        demands, windows = self._demands()
        trace_on = self.trace is not None and self.trace.enabled
        if trace_on:
            self.trace.emit(
                "arbiter.tick", cat="arbiter",
                budgets={l.name: l.budget_bytes for l in self._leases},
                demands=[round(d * 1e9, 3) for d in demands])
        recipient, donor = self._pick(demands, windows)
        if recipient is None:
            return
        step = min(int(self.spec.step_fraction * self.total_bytes),
                   donor.budget_bytes - donor.floor_bytes)
        if step <= 0:
            return
        try:
            victims = donor.resize(donor.budget_bytes - step)
        except CacheStallError:
            # Every remaining entry pinned: the budget assignment stuck,
            # the cache sheds the overhang through its own make_room
            # path as pins release.  The move still completes.
            victims = []
            self.counters.add("arbiter.stall_aborts")
        donor.budget_bytes -= step
        recipient.budget_bytes += step
        recipient.resize(recipient.budget_bytes)  # growth: evicts nothing
        donor.gauge.set(donor.budget_bytes)
        recipient.gauge.set(recipient.budget_bytes)
        self.counters.add("arbiter.moves")
        self.counters.add("arbiter.moved_bytes", step)
        if trace_on:
            self.trace.emit("arbiter.move_bytes", cat="arbiter",
                            src=donor.name, dst=recipient.name,
                            nbytes=step,
                            src_budget=donor.budget_bytes,
                            dst_budget=recipient.budget_bytes)
        # A dirty victim comes back resident: written back here, it is
        # shed with the rest of the overhang at the donor's next
        # make_room (write back first, then evict clean).
        for item in victims:
            if donor.writeback is None:
                raise RuntimeError(
                    f"lease {donor.name!r} shed dirty victims but "
                    f"registered no writeback routine")
            yield from donor.writeback(item)


def make_arbiter(spec: ArbiterSpec, total_bytes: int,
                 counters: Optional[CounterSet] = None,
                 trace=None) -> MemoryArbiter:
    """Instantiate the arbiter kind named by ``spec``."""
    cls = StaticSplit if spec.kind == "static" else GhostGradient
    return cls(spec, total_bytes, counters=counters, trace=trace)
