"""Measurement helpers: counters, throughput meters, utilization windows.

Experiments follow a warmup/measure protocol: run the workload, call
:meth:`MeterSet.reset` at the end of warmup, read meters at the end of the
measurement window.  Everything is pull-based; nothing samples on a timer,
so the meters add no events to the simulation.

The counter substrate now lives in :mod:`repro.obs.metrics`: a
:class:`MeterSet` owns a :class:`~repro.obs.metrics.MetricsRegistry` of
declared counters and latency/size histograms, and :class:`CounterSet`
remains only as a thin deprecated shim over a registry so existing
``counters["nfs.drc_hit"]`` call sites keep working.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..obs.metrics import Counter, Histogram, MetricsRegistry

if TYPE_CHECKING:
    from .engine import Simulator


class CounterSet:
    """A lazily populated namespace of counters.

    .. deprecated::
        Thin shim over :class:`~repro.obs.metrics.MetricsRegistry`;
        new code should declare metrics on a registry directly
        (``registry.counter("nfs.read.bytes", unit="bytes")``).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def __getitem__(self, name: str) -> Counter:
        return self.registry.counter(name)

    def add(self, name: str, amount: float = 1.0) -> None:
        # Hot path (every copy, checksum and protocol op lands here):
        # bypass the declare-or-get call for the common re-access case.
        metric = self.registry._metrics.get(name)
        if metric is None or metric.__class__ is not Counter:
            metric = self.registry.counter(name)
        metric._total += amount

    def reset(self) -> None:
        for counter in self.registry.counters():
            counter.reset()

    def snapshot(self) -> Dict[str, float]:
        """Values since last reset, for every counter ever touched."""
        return {c.name: c.value
                for c in sorted(self.registry.counters(),
                                key=lambda c: c.name)}

    def totals(self) -> Dict[str, float]:
        return {c.name: c.total
                for c in sorted(self.registry.counters(),
                                key=lambda c: c.name)}

    def __contains__(self, name: str) -> bool:
        metric = self.registry.get(name)
        return metric is not None and metric.__class__ is Counter


class ThroughputMeter:
    """Tracks completed bytes and operations over a measurement window."""

    def __init__(self, sim: "Simulator", name: str = "throughput") -> None:
        self.sim = sim
        self.name = name
        self.bytes = Counter(name + ".bytes")
        self.ops = Counter(name + ".ops")
        self._window_start = sim.now

    def record(self, nbytes: int, ops: int = 1) -> None:
        self.bytes.add(nbytes)
        self.ops.add(ops)

    def reset(self) -> None:
        self.bytes.reset()
        self.ops.reset()
        self._window_start = self.sim.now

    @property
    def window(self) -> float:
        return self.sim.now - self._window_start

    def bytes_per_second(self) -> float:
        return self.bytes.value / self.window if self.window > 0 else 0.0

    def mb_per_second(self) -> float:
        return self.bytes_per_second() / (1024.0 * 1024.0)

    def ops_per_second(self) -> float:
        return self.ops.value / self.window if self.window > 0 else 0.0


class UtilizationWindow:
    """Windowed utilization of a :class:`Resource` or :class:`Link`."""

    def __init__(self, resource, sim: "Simulator") -> None:
        self.resource = resource
        self.sim = sim
        self.reset()

    def reset(self) -> None:
        self._busy0 = self.resource.busy_time()
        self._time0 = self.sim.now

    def utilization(self) -> float:
        return self.resource.utilization(self._busy0, self._time0)


class MeterSet:
    """Bundle of all meters an experiment resets at the warmup boundary.

    Owns a :class:`~repro.obs.metrics.MetricsRegistry`; besides the
    legacy pull-based meters it declares per-request latency and size
    histograms (``request.latency``, ``request.bytes``) that workloads
    feed through :meth:`record_request`, giving every experiment
    p50/p95/p99 percentiles over the measurement window for free.
    """

    def __init__(self, sim: "Simulator",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry()
        self.counters = CounterSet(self.registry)
        self.throughput = ThroughputMeter(sim)
        #: The ``request.latency`` histogram under both names.  What
        #: :meth:`record_latency` records into is ``latency``; it stays
        #: assignable so a harness can install its own recorder there.
        self.latency = self.request_latency = self.registry.histogram(
            "request.latency", unit="s")
        self.request_bytes: Histogram = self.registry.histogram(
            "request.bytes", unit="bytes")
        self._utilizations: Dict[str, UtilizationWindow] = {}

    def watch(self, name: str, resource) -> UtilizationWindow:
        window = UtilizationWindow(resource, self.sim)
        self._utilizations[name] = window
        return window

    def utilization(self, name: str) -> float:
        return self._utilizations[name].utilization()

    def utilizations(self) -> Dict[str, float]:
        """Current utilization of every watched resource, by name."""
        return {name: window.utilization()
                for name, window in self._utilizations.items()}

    def record_latency(self, latency_s: float) -> None:
        """Record one request's latency."""
        self.latency.record(latency_s)

    def record_request(self, latency_s: float, nbytes: int,
                       ops: int = 1) -> None:
        """Record one completed request: latency, size, and throughput."""
        self.record_latency(latency_s)
        if nbytes:
            self.request_bytes.record(nbytes)
        self.throughput.record(nbytes, ops)

    def reset(self) -> None:
        self.registry.reset()
        self.throughput.reset()
        self.latency.reset()  # an installed recorder is not in the registry
        for window in self._utilizations.values():
            window.reset()
