"""The unified ``Workload`` protocol: bind → run → describe.

Every generator in this package — micro-benchmarks, the SPECweb/SPECsfs
analogs, the trace player, the fleet Zipf driver — speaks the same
three-method protocol, so experiment harnesses (single-node or fleet)
compose them without per-kind special cases::

    wl = SpecWebWorkload(working_set_bytes=64 * MB)
    wl.bind(testbed_or_fleet)      # attach; creates files, picks clients
    wl.run(until=2.0)              # prewarm (if any) + start + sim.run
    wl.describe()                  # {"workload": ..., knobs...}

``run`` is :meth:`WorkloadBase.warm` (the prewarm, once), ``start()``
(once) and an advance of the clock; the measurement protocol in
:mod:`repro.experiments.common` is written on those pieces.

:class:`WorkloadBase` carries the shared mechanics.  Subclasses keep
their historical ``__init__(testbed, ...)`` signatures — passing a
target at construction binds immediately — and implement ``_bind`` (the
testbed-dependent setup that used to live in ``__init__``) plus
``_params`` (for ``describe``).  Fleet-aware workloads set
``fleet_aware = True`` and are bound to the whole
:class:`~repro.fleet.Fleet`; node-scoped workloads bound to a
single-node fleet are transparently unwrapped to its testbed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, runtime_checkable

from ..servers.testbed import BaseTestbed, run_until_complete


@runtime_checkable
class Workload(Protocol):
    """What a workload driver may rely on."""

    def bind(self, target: Any) -> "Workload":
        """Attach to a testbed or fleet; returns self for chaining."""
        ...

    def warm(self) -> None:
        """Run the workload's prewarm, if it has one, to completion;
        once."""
        ...

    def start(self) -> Any:
        """Spawn the load-generating processes."""
        ...

    def run(self, until: float) -> None:
        """Warm, start (once), and advance the simulation to ``until``
        (absolute simulated seconds)."""
        ...

    def describe(self) -> Dict[str, Any]:
        """The workload's identity and knobs, JSON-serialisable."""
        ...


def resolve_testbed(target: Any) -> BaseTestbed:
    """A node-scoped workload's view of ``target``.

    Testbeds pass through; a single-node fleet unwraps to its one
    testbed; a multi-node fleet needs a fleet-aware workload.
    """
    if isinstance(target, BaseTestbed):
        return target
    nodes = getattr(target, "nodes", None)
    if nodes is not None:
        if len(nodes) == 1:
            return nodes[0].testbed
        raise ValueError(
            f"node-scoped workload cannot bind a {len(nodes)}-server "
            f"fleet; use a fleet-aware workload (e.g. FleetZipfWorkload)")
    raise TypeError(f"cannot bind workload to {target!r}")


class WorkloadBase:
    """Shared bind/run/describe mechanics for every workload kind."""

    #: fleet-aware workloads receive the :class:`~repro.fleet.Fleet`
    #: itself in ``_bind``; everyone else gets a resolved testbed.
    fleet_aware = False

    def __init__(self, target: Any = None) -> None:
        self._target: Any = None
        self._started = False
        self._prewarmed = False
        if target is not None:
            self.bind(target)

    # -- protocol ------------------------------------------------------------

    def bind(self, target: Any) -> "WorkloadBase":
        if self._target is not None:
            raise ValueError(f"{type(self).__name__} is already bound")
        resolved = target if self.fleet_aware else resolve_testbed(target)
        self._target = resolved
        self._bind(resolved)
        return self

    def warm(self) -> None:
        """Run the workload's ``prewarm()`` to completion, once; a
        workload without one has nothing to warm."""
        sim = self._require_bound().sim
        prewarm = getattr(self, "prewarm", None)
        if prewarm is not None and not self._prewarmed:
            self._prewarmed = True
            run_until_complete(sim, prewarm())

    def run(self, until: float) -> None:
        self.warm()
        if not self._started:
            self._started = True
            self.start()
        self._target.sim.run(until=until)

    def describe(self) -> Dict[str, Any]:
        return {"workload": type(self).__name__, **self._params()}

    # -- subclass hooks ------------------------------------------------------

    def _bind(self, target: Any) -> None:
        """Testbed-dependent setup (file creation, client selection)."""
        raise NotImplementedError

    def start(self) -> None:
        """Spawn the load-generating processes (idempotence not
        required; :meth:`run` calls it once)."""
        raise NotImplementedError

    def _params(self) -> Dict[str, Any]:
        """The knobs worth reporting in :meth:`describe`."""
        return {}

    # -- conveniences --------------------------------------------------------

    @property
    def bound(self) -> bool:
        return self._target is not None

    def _require_bound(self) -> Any:
        if self._target is None:
            raise ValueError(f"{type(self).__name__} is not bound; "
                             f"call bind(testbed_or_fleet) first")
        return self._target
