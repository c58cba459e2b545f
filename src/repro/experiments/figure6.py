"""Figure 6: kHTTPd — SPECweb99 working-set sweep (a), all-hit sizes (b).

Paper (§5.5):

* (a) throughput falls as the working set grows (cache hit ratio drops);
  kHTTPd-NCache improves on kHTTPd-original by 10–20% and kHTTPd-baseline
  by ~40%; NCache's curve drops hardest between 500 MB and 750 MB because
  its chunk descriptors eat into effective cache capacity;
* (b) under the all-hit workload the NCache improvement grows with the
  request size, 8% at 16 KB up to 47% at 128 KB.
"""

from __future__ import annotations

from typing import List

from ..analysis.tables import ExperimentResult, pct_gain
from ..servers.config import MB, ServerMode
from ..servers.spec import TestbedSpec
from ..workloads.specweb import AllHitWebWorkload, SpecWebWorkload
from .common import (
    ALL_MODES,
    WEB_REQUEST_SIZES,
    measure,
    scaled_memory_config,
)
from .parallel import RunSpec, sweep

#: Paper working-set sizes (MB) and the quick-mode scale divisor.
FULL_WORKING_SETS_MB = (250, 500, 650, 750, 900)
QUICK_SCALE = 4


def measure_working_set(mode: ServerMode, working_set_mb: int,
                        quick: bool = True, reports: dict = None) -> dict:
    """One (mode, working set) cell of Figure 6(a).

    When ``reports`` is given, the testbed's full metrics snapshot is
    stored there under ``"<mode>/<working_set_mb>mb"``.
    """
    scale = QUICK_SCALE if quick else 1
    testbed = TestbedSpec.web(mode, **scaled_memory_config(scale)).build()
    workload = SpecWebWorkload(testbed,
                               working_set_bytes=working_set_mb * MB // scale)
    measure(testbed, workload, quick, ranked=workload.paths,
            reports=reports, key=f"{mode.value}/{working_set_mb}mb")
    return {
        "mode": mode.label,
        "working_set_mb": working_set_mb,
        "throughput_mbps": testbed.meters.throughput.mb_per_second(),
        "ops_per_sec": testbed.meters.throughput.ops_per_second(),
        "hit_ratio": testbed.cache.hit_ratio()
        if mode is not ServerMode.NCACHE else _ncache_hit_ratio(testbed),
    }


def _ncache_hit_ratio(testbed) -> float:
    counters = testbed.server_host.counters
    hits = counters["ncache.lbn_hit"].value + counters["ncache.fho_hit"].value
    lookups = hits + counters["ncache.substitute_miss"].value \
        + counters["bcache.miss"].value
    return hits / lookups if lookups else 0.0


def measure_allhit(mode: ServerMode, request_size: int,
                   quick: bool = True, reports: dict = None) -> dict:
    """One (mode, request size) cell of Figure 6(b).

    When ``reports`` is given, the testbed's full metrics snapshot is
    stored there under ``"<mode>/allhit/<request_size>"``.
    """
    testbed = TestbedSpec.web(mode).build()
    workload = AllHitWebWorkload(testbed, request_size)
    measure(testbed, workload, quick, reports=reports,
            key=f"{mode.value}/allhit/{request_size}")
    return {
        "mode": mode.label,
        "request_kb": request_size // 1024,
        "throughput_mbps": testbed.meters.throughput.mb_per_second(),
        "ops_per_sec": testbed.meters.throughput.ops_per_second(),
    }


def grid_working_set(quick: bool = True) -> List[RunSpec]:
    """The Figure 6(a) sweep as independent grid points."""
    return [RunSpec(fn="repro.experiments.figure6:measure_working_set",
                    args=(mode, ws, quick),
                    label=f"figure6a/{mode.value}/{ws}mb")
            for mode in ALL_MODES
            for ws in FULL_WORKING_SETS_MB]


def grid_allhit(quick: bool = True) -> List[RunSpec]:
    """The Figure 6(b) sweep as independent grid points."""
    return [RunSpec(fn="repro.experiments.figure6:measure_allhit",
                    args=(mode, request_size, quick),
                    label=f"figure6b/{mode.value}/allhit/{request_size}")
            for mode in ALL_MODES
            for request_size in WEB_REQUEST_SIZES]


def run_working_set(quick: bool = True, workers: int = 1,
                    trace_sink: list = None) -> ExperimentResult:
    """The Figure 6(a) sweep."""
    result = ExperimentResult(
        name="figure6a",
        title="Figure 6(a): kHTTPd SPECweb99-like, working-set sweep",
        columns=["mode", "working_set_mb", "throughput_mbps",
                 "ops_per_sec", "hit_ratio"])
    if quick:
        result.add_note(f"quick mode: memory geometry scaled down by "
                        f"{QUICK_SCALE}x (ratios preserved)")
    sweep(grid_working_set(quick), workers, trace_sink, into=result)
    for ws in (500, 750):
        orig = result.value("throughput_mbps", mode="original",
                            working_set_mb=ws)
        ncache = result.value("throughput_mbps", mode="NCache",
                              working_set_mb=ws)
        result.add_note(f"{ws} MB: NCache vs original "
                        f"{pct_gain(ncache, orig):+.1f}% "
                        f"(paper: +10% to +20%)")
    return result


def run_allhit(quick: bool = True, workers: int = 1,
               trace_sink: list = None) -> ExperimentResult:
    """The Figure 6(b) sweep."""
    result = ExperimentResult(
        name="figure6b",
        title="Figure 6(b): kHTTPd all-hit, request-size sweep",
        columns=["mode", "request_kb", "throughput_mbps", "ops_per_sec"])
    sweep(grid_allhit(quick), workers, trace_sink, into=result)
    for request_kb in (16, 128):
        orig = result.value("throughput_mbps", mode="original",
                            request_kb=request_kb)
        ncache = result.value("throughput_mbps", mode="NCache",
                              request_kb=request_kb)
        result.add_note(
            f"{request_kb} KB: NCache vs original "
            f"{pct_gain(ncache, orig):+.1f}% "
            f"(paper: +8% at 16 KB up to +47% at 128 KB)")
    return result
