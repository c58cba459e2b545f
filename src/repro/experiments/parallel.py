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

``DESIGN.md`` §7 states the argument in full; the lock is
``tests/test_parallel_determinism.py``.
"""

from __future__ import annotations

import gc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..analysis.tables import ExperimentResult
from ..obs import trace as _trace
from ..sim import engine as _engine


@dataclass(frozen=True)
class RunSpec:
    """One picklable unit of experiment work.

    ``fn`` is a ``"module:callable"`` string rather than a function
    object so specs stay picklable and printable; the callable is
    resolved in the worker process.  When ``capture_reports`` is true
    the callable must accept a ``reports`` keyword (the convention all
    ``measure_*`` functions follow) and the dict it fills is carried
    back on the :class:`RunResult`.
    """

    fn: str
    args: tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    capture_reports: bool = True


@dataclass
class RunResult:
    """What came back from one :class:`RunSpec`.

    ``value`` is whatever the spec's callable returned (a row dict for
    ``measure_*`` functions, an ``ExperimentResult`` for whole-ablation
    specs).  ``sim_events`` is the number of engine callbacks the point
    dispatched (an identity check, not a rate); ``trace`` is a list of
    serialized trace buses when tracing was requested, else ``None``.
    """

    label: str
    value: Any
    report: Dict[str, Any] = field(default_factory=dict)
    sim_events: int = 0
    trace: Optional[List[Dict[str, Any]]] = None


def _resolve(fn: str):
    module_name, _, attr = fn.partition(":")
    if not attr:
        raise ValueError(f"RunSpec.fn must be 'module:callable', got {fn!r}")
    return getattr(import_module(module_name), attr)


def _execute(spec: RunSpec, trace: bool = False) -> RunResult:
    """Run one spec in this process (pool worker or serial caller)."""
    fn = _resolve(spec.fn)
    kwargs = dict(spec.kwargs)
    reports: Dict[str, Any] = {}
    if spec.capture_reports:
        kwargs["reports"] = reports
    session = _trace.start_tracing() if trace else None
    before = _engine.dispatch_count()
    try:
        value = fn(*spec.args, **kwargs)
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
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        return list(pool.map(_execute, specs, [trace] * len(specs)))


def sweep(specs: Sequence[RunSpec], workers: int = 1,
          trace_sink: Optional[List[Dict[str, Any]]] = None,
          into: Optional[ExperimentResult] = None) -> List[RunResult]:
    """Run one sweep's grid and do the bookkeeping every sweep shares.

    Tracing is on exactly when ``trace_sink`` is given; the sink receives
    the serialized buses in spec order (feed it to
    :func:`repro.obs.trace.write_chrome_trace`).  When ``into`` is given,
    each point's row dict becomes a row of it and each point's metrics
    report is merged into its ``reports``.  Returns the results in spec
    order for sweeps that assemble their rows themselves.
    """
    results = run_specs(specs, workers=workers, trace=trace_sink is not None)
    if trace_sink is not None:
        trace_sink.extend(collect_traces(results))
    if into is not None:
        for rr in results:
            into.add_row(**rr.value)
            into.reports.update(rr.report)
    return results


def collect_traces(results: Iterable[RunResult]) -> List[Dict[str, Any]]:
    """All serialized buses from ``results``, in result (= spec) order."""
    buses: List[Dict[str, Any]] = []
    for rr in results:
        if rr is not None and rr.trace:
            buses.extend(rr.trace)
    return buses
