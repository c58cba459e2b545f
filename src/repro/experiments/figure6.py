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

from functools import partial
from typing import Dict, Iterator, List

from ..analysis.tables import ExperimentResult
from ..servers.config import MB, ServerMode
from ..servers.spec import TestbedSpec
from ..workloads.specweb import AllHitWebWorkload, SpecWebWorkload
from .common import (ALL_MODES, WEB_REQUEST_SIZES, Cell, Sweep, ncache_gain,
                     read, scaled_memory_config)

#: Paper working-set sizes (MB) and the quick-mode scale divisor.
FULL_WORKING_SETS_MB = (250, 500, 650, 750, 900)
QUICK_SCALE = 4

_RATES = ("throughput_mbps", "ops_per_sec")


def working_set_cells(quick: bool = True) -> List[Cell]:
    """Every (mode, working set) cell of Figure 6(a): the SPECweb99-like
    Zipf set, warm-started; quick mode divides memory and working set
    alike."""
    scale = QUICK_SCALE if quick else 1
    return [Cell(
        label=f"{mode.value}/{ws}mb",
        axes={"mode": mode.label, "working_set_mb": ws},
        spec=TestbedSpec.web(mode, **scaled_memory_config(scale)),
        workload=partial(SpecWebWorkload, working_set_bytes=ws * MB // scale),
        ranked="paths",
        readout=_working_set_readout)
        for mode in ALL_MODES
        for ws in FULL_WORKING_SETS_MB]


def _working_set_readout(testbed, workload) -> Dict[str, float]:
    return {**read(testbed, workload, _RATES),
            "hit_ratio": testbed.cache.hit_ratio()
            if testbed.config.mode is not ServerMode.NCACHE
            else _ncache_hit_ratio(testbed)}


def _ncache_hit_ratio(testbed) -> float:
    counters = testbed.server_host.counters
    hits = counters["cache.ncache.hit"].value
    lookups = hits + counters["ncache.substitute_miss"].value \
        + counters["cache.bcache.miss"].value
    return hits / lookups if lookups else 0.0


def allhit_cells(quick: bool = True) -> List[Cell]:
    """Every (mode, request size) cell of Figure 6(b): each request a
    hit."""
    return [Cell(
        label=f"{mode.value}/allhit/{request_size}",
        axes={"mode": mode.label, "request_kb": request_size // 1024},
        spec=TestbedSpec.web(mode),
        workload=partial(AllHitWebWorkload, request_size=request_size),
        readout=partial(read, columns=_RATES))
        for mode in ALL_MODES
        for request_size in WEB_REQUEST_SIZES]


def _working_set_notes(result: ExperimentResult,
                       quick: bool) -> Iterator[str]:
    if quick:
        yield (f"quick mode: memory geometry scaled down by "
               f"{QUICK_SCALE}x (ratios preserved)")
    for ws in (500, 750):
        gain = ncache_gain(result, "throughput_mbps", working_set_mb=ws)
        yield (f"{ws} MB: NCache vs original {gain:+.1f}% "
               f"(paper: +10% to +20%)")


def _allhit_notes(result: ExperimentResult, quick: bool) -> Iterator[str]:
    for kb in (16, 128):
        gain = ncache_gain(result, "throughput_mbps", request_kb=kb)
        yield (f"{kb} KB: NCache vs original {gain:+.1f}% "
               f"(paper: +8% at 16 KB up to +47% at 128 KB)")


SWEEP_A = Sweep(
    "figure6a", "Figure 6(a): kHTTPd SPECweb99-like, working-set sweep",
    ("mode", "working_set_mb", "throughput_mbps", "ops_per_sec",
     "hit_ratio"),
    working_set_cells, notes=_working_set_notes)

SWEEP_B = Sweep(
    "figure6b", "Figure 6(b): kHTTPd all-hit, request-size sweep",
    ("mode", "request_kb", "throughput_mbps", "ops_per_sec"),
    allhit_cells, notes=_allhit_notes)
