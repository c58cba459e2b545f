"""Copy accounting: the heart of the reproduction's measurement story.

Every movement of data between kernel modules goes through a
:class:`CopyAccountant`, which

* charges the owning CPU the modelled cost (physical copy: per-byte;
  logical copy: per-key; zero: nothing),
* bumps named counters so experiments can report copies per category, and
* with the simulator's :class:`~repro.obs.trace.TraceBus` enabled, emits
  one ``copies.physical`` / ``copies.logical`` instant per movement, so
  Table 2 ("number of data copying operations per request") is
  :func:`physical_copies` over the events one request produced.

The three movement disciplines correspond to the paper's three server
configurations:

======================  =======================================================
``CopyDiscipline``      meaning
======================  =======================================================
``PHYSICAL``            original servers: memcpy, charged per byte
``LOGICAL``             NCache: copy the key, payload stays in the cache
``ZERO``                baseline: the copy statement is simply deleted; the
                        consumer sees junk, nothing is charged
======================  =======================================================
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Optional

from ..obs.trace import TraceEvent
from ..sim.resources import CPU
from ..sim.stats import CounterSet
from .costs import CostModel


class CopyDiscipline(enum.Enum):
    """How regular data moves between kernel modules."""

    PHYSICAL = "physical"
    LOGICAL = "logical"
    ZERO = "zero"


def physical_copies(events: Iterable[TraceEvent],
                    where: Optional[str] = None,
                    regular_only: bool = True) -> int:
    """Physical copies of (by default) regular data among ``events``,
    optionally restricted to the host named ``where`` — Table 2 counts
    copies *within the pass-through server*, not on the storage target."""
    return sum(1 for ev in events
               if ev.name == "copies.physical"
               and not (regular_only and ev.args["is_metadata"])
               and (where is None or ev.args["host"] == where))


class CopyAccountant:
    """Charges data-movement and protocol costs to one host's CPU."""

    def __init__(self, cpu: CPU, costs: CostModel,
                 counters: Optional[CounterSet] = None,
                 owner: str = "") -> None:
        self.cpu = cpu
        self.costs = costs
        self.counters = counters if counters is not None else CounterSet()
        self.owner = owner
        self._bus = cpu.sim.trace
        #: per-copy size distribution — the paper's accounting argument is
        #: about how many bytes physically move, so the registry keeps the
        #: whole distribution, not just the total.
        self._copy_bytes = self.counters.registry.histogram(
            "copy.bytes", unit="bytes")
        # Hot path: every data movement and protocol op lands in one of a
        # small set of counters, so Counter objects are memoized here and
        # bumped directly instead of going through the registry's name
        # lookup (and an f-string) on each call.  The memo is lazy on
        # purpose: a counter must not appear in snapshots (or answer to
        # ``in``) before the first real increment.
        self._memo: dict = {}
        self._cat_physical: dict = {}
        self._cat_logical: dict = {}
        self._cat_compute: dict = {}

    def _counter(self, name: str):
        counter = self._memo.get(name)
        if counter is None:
            counter = self._memo[name] = self.counters[name]
        return counter

    def _category_counter(self, memo: dict, prefix: str, category: str):
        counter = memo.get(category)
        if counter is None:
            counter = memo[category] = self.counters[prefix + category]
        return counter

    # -- batched (note + charge) accounting ---------------------------------
    #
    # The ``note_*`` methods do all the bookkeeping of their charging
    # counterparts — counters, histograms, bus events — and *return* the
    # CPU cost in nanoseconds instead of holding the CPU.  Callers on a
    # packet path (repro.net.stack) sum the noted costs over a whole
    # train and execute them through one :meth:`charge_ns`, turning N
    # sequential CPU holds into one — same total CPU-seconds, a fraction
    # of the engine events.  Table 2 exactness is untouched: the events
    # are emitted per movement either way.

    def note_physical_copy(self, nbytes: int, category: str,
                           is_metadata: bool = False) -> float:
        """Book a memcpy of ``nbytes``; returns its CPU cost in ns."""
        self._counter("copies.physical")._total += 1
        self._counter("copies.physical_bytes")._total += nbytes
        self._category_counter(self._cat_physical, "copies.physical.",
                               category)._total += 1
        self._copy_bytes.record(nbytes)
        bus = self._bus
        if bus.enabled:
            bus.emit("copies.physical", cat="copies",
                     tid=bus.tid_for(self.owner), host=self.owner,
                     category=category, nbytes=nbytes,
                     is_metadata=is_metadata)
        return self.costs.memcpy_ns(nbytes)

    def note_logical_copy(self, category: str, nkeys: int = 1,
                          nbytes: int = 0) -> float:
        """Book ``nkeys`` key copies; returns the CPU cost in ns."""
        self._counter("copies.logical")._total += nkeys
        self._category_counter(self._cat_logical, "copies.logical.",
                               category)._total += nkeys
        bus = self._bus
        if bus.enabled:
            bus.emit("copies.logical", cat="copies",
                     tid=bus.tid_for(self.owner), host=self.owner,
                     category=category, nkeys=nkeys, nbytes=nbytes)
        return nkeys * self.costs.logical_copy_ns

    def note_compute(self, nanoseconds: float,
                     category: str = "compute") -> float:
        """Book a generic CPU cost; returns it unchanged (ns)."""
        self._category_counter(self._cat_compute, "cpu.",
                               category)._total += nanoseconds
        return nanoseconds

    def note_checksum(self, nbytes: int, cached: bool = False) -> float:
        """Book a software checksum; returns the CPU cost in ns."""
        if cached:
            self._counter("checksum.inherited")._total += 1
            return 0.0
        self._counter("checksum.computed")._total += 1
        self._counter("checksum.bytes")._total += nbytes
        return self.costs.checksum_ns(nbytes)

    def charge_ns(self, nanoseconds: float) -> Iterable[Any]:
        """Hold the CPU for an already-booked aggregate cost."""
        return self.cpu.execute(nanoseconds * 1e-9)

    # -- data movement -----------------------------------------------------
    #
    # The classic charge-inline entry points.  Each is a plain function
    # whose bookkeeping runs eagerly and whose CPU hold is booked when
    # it is called: what it returns is :meth:`CPU.execute`'s plain delay,
    # which the caller hands to ``yield from`` at once (these are the
    # hottest call sites in the tree after the engine itself).

    def physical_copy(self, nbytes: int, category: str,
                      is_metadata: bool = False) -> Iterable[Any]:
        """memcpy ``nbytes``; charged per byte."""
        return self.cpu.execute(
            self.note_physical_copy(nbytes, category, is_metadata) * 1e-9)

    def logical_copy(self, category: str, nkeys: int = 1,
                     nbytes: int = 0) -> Iterable[Any]:
        """Copy ``nkeys`` keys instead of the payload (NCache §3.1)."""
        return self.cpu.execute(
            self.note_logical_copy(category, nkeys, nbytes) * 1e-9)

    def move(self, discipline: CopyDiscipline, nbytes: int, category: str,
             nkeys: int = 1, is_metadata: bool = False) -> Iterable[Any]:
        """Move data under the given discipline.

        Metadata always moves physically regardless of discipline — the
        server must interpret it (§3.3) — which is why callers pass
        ``is_metadata`` rather than skipping the call.
        """
        if is_metadata or discipline is CopyDiscipline.PHYSICAL:
            return self.physical_copy(nbytes, category, is_metadata)
        if discipline is CopyDiscipline.LOGICAL:
            return self.logical_copy(category, nkeys, nbytes)
        # ZERO: statement deleted, nothing moves, nothing charged.
        self._counter("copies.elided")._total += 1
        return ()

    # -- protocol / bookkeeping costs ---------------------------------------

    def compute(self, nanoseconds: float, category: str = "compute"
                ) -> Iterable[Any]:
        """Charge a generic CPU cost."""
        self._category_counter(self._cat_compute, "cpu.",
                               category)._total += nanoseconds
        return self.cpu.execute(nanoseconds * 1e-9)

    def checksum(self, nbytes: int, cached: bool = False) -> Iterable[Any]:
        """Software checksum cost; free when a cached sum is inherited."""
        return self.cpu.execute(self.note_checksum(nbytes, cached) * 1e-9)
