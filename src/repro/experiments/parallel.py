"""Process-pool experiment runner.

Every figure/table sweep is a grid of independent data points: one
testbed, one workload, one measurement window, no shared state.  This
module fans those points out over a :class:`~concurrent.futures.\
ProcessPoolExecutor` and merges the results **deterministically**: the
merged rows, metrics reports and trace artifacts are byte-identical for
any ``--workers`` value, because

* each point simulates in a fresh :class:`~repro.sim.engine.Simulator`
  whose only inputs are the :class:`RunSpec` (seeds included), never
  wall-clock or pool scheduling;
* results are reassembled in *spec order* (``executor.map`` preserves
  input order), so merge order does not depend on completion order;
* trace buses are serialized per point and assigned Chrome pids by spec
  position during the merge, not by adoption order inside a worker.

``DESIGN.md`` §7 states the argument in full; the lock is CI's
``sweep-identity`` step, which diffs whole sweeps run at ``--workers 1``
and ``--workers 2``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import trace as _trace
from ..sim import engine as _engine


@dataclass(frozen=True)
class RunSpec:
    """One picklable unit of experiment work.

    ``fn`` is a module-level callable (pickled by reference and called in
    the worker process) — :func:`~repro.experiments.common.run_cell` for
    every sweep but Table 2.  When ``capture_reports`` is true it must
    accept a ``reports`` keyword, and the dict it fills is carried back
    on the :class:`RunResult`.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    label: str = ""
    capture_reports: bool = True


@dataclass
class RunResult:
    """What came back from one :class:`RunSpec`.

    ``value`` is whatever the spec's callable returned (a row dict for
    a cell, copy counts for a Table 2 scenario).  ``sim_events`` is the
    number of engine callbacks the point dispatched (an identity check,
    not a rate); ``trace`` is a list of serialized trace buses when
    tracing was requested, else ``None``.
    """

    label: str
    value: Any
    report: Dict[str, Any] = field(default_factory=dict)
    sim_events: int = 0
    trace: Optional[List[Dict[str, Any]]] = None


def _execute(spec: RunSpec, trace: bool = False) -> RunResult:
    """Run one spec in this process (pool worker or serial caller)."""
    reports: Dict[str, Any] = {}
    kwargs = {"reports": reports} if spec.capture_reports else {}
    session = _trace.start_tracing() if trace else None
    before = _engine.dispatch_count()
    try:
        value = spec.fn(*spec.args, **kwargs)
    finally:
        if session is not None:
            _trace.stop_tracing()
    return RunResult(
        label=spec.label,
        value=value,
        report=reports,
        sim_events=_engine.dispatch_count() - before,
        trace=session.serialize() if session is not None else None,
    )


def run_specs(specs: Sequence[RunSpec], workers: int = 1,
              trace: bool = False) -> List[RunResult]:
    """Run every spec; results come back in spec order.

    ``workers <= 1`` runs serially in this process (no pool, easier to
    debug/profile, identical results).  Tracing uses a per-point session
    in whichever process runs the point, so a *global* trace session
    must not be active around this call.
    """
    if trace and _trace.active_session() is not None:
        raise RuntimeError(
            "run_specs(trace=True) manages per-point trace sessions; "
            "stop the global session first")
    if workers <= 1 or len(specs) <= 1:
        results = []
        for spec in specs:
            results.append(_execute(spec, trace))
            # Drop the just-finished point's testbed before building the
            # next one: without this the process high-water mark counts
            # two full testbeds at once (collection is results-neutral —
            # it frees garbage, it never touches live simulation state).
            gc.collect()
        return results
    # Imported here: ``multiprocessing`` costs ~2.5 MB of resident memory
    # that a serial run never uses.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        return list(pool.map(_execute, specs, [trace] * len(specs)))
