"""The paper's claims, and our extensions', as one checkable registry.

Everything the reproduction is held to is a :class:`PaperClaim`: a
scalar read off an experiment's result table and the band it must fall
in.  The headline gains and the orderings, saturations, crossovers and
trends of EXPERIMENTS.md have the same shape (a trend is one scalar by
``min`` / ``max`` over its series); ablation claims carry section
``"ext"``.  ``evaluate_all(quick=True)`` reruns the experiments the
claims read — the one-call reproduction audit, and the job CI gates on:

>>> from repro.analysis.paper import evaluate_all
>>> report = evaluate_all()          # a minute or two
>>> all(claim.passed for claim in report)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub
from typing import Any, Callable, Dict, List, Optional, Sequence

from .tables import ExperimentResult, pct_gain

INF = float("inf")
#: Bands are inclusive; "strictly above zero" starts here, so that a
#: mechanism with no effect at all (exactly 0.0, run to run) fails.
EPS = 1e-9

#: Reads one scalar off a result table.
Measure = Callable[[ExperimentResult], float]


@dataclass
class PaperClaim:
    """One quantitative claim and its acceptance band."""

    claim_id: str
    section: str
    statement: str
    paper_value: str
    low: float
    high: float
    #: extracts the measured scalar from the experiment result
    measure: Measure = field(repr=False, default=None)
    experiment: str = ""
    #: what the band and the measured value count ("pt": percentage
    #: points between two percentages)
    unit: str = "%"
    measured: Optional[float] = None

    @property
    def passed(self) -> Optional[bool]:
        if self.measured is None:
            return None
        return self.low <= self.measured <= self.high

    def check(self, result: ExperimentResult) -> "PaperClaim":
        self.measured = self.measure(result)
        return self


def _cell(column: str, **filters: Any) -> Measure:
    return lambda result: result.value(column, **filters)


def _versus(how: Callable[[float, float], float], new: Measure,
            old: Measure) -> Measure:
    """Two reads compared: ``how`` is ``pct_gain`` (percent by which
    ``new`` exceeds ``old``) or ``sub`` (``new - old``)."""
    return lambda result: how(new(result), old(result))


def _rise(metric: str, axis: str, new: Any, old: Any,
          how: Callable[[float, float], float] = pct_gain,
          **filters: Any) -> Measure:
    """``metric`` where ``axis == new`` against where ``axis == old``."""
    return _versus(how, _cell(metric, **{axis: new}, **filters),
                   _cell(metric, **{axis: old}, **filters))


def _gain(metric: str, mode_new: str = "NCache", mode_old: str = "original",
          **filters: Any) -> Measure:
    return _rise(metric, "mode", mode_new, mode_old, **filters)


def _each(fold: Callable[[List[float]], float], axis: str, measure: Measure,
          values: Sequence[Any] = ()) -> Measure:
    """``fold`` of ``measure`` read on each slice ``axis == value`` — of
    ``values``, or of every value the sweep has (in row order)."""
    return lambda result: fold([
        measure(result.where(**{axis: value}))
        for value in values or dict.fromkeys(result.column(axis))])


def _smallest_step(series: List[float]) -> float:
    """Smallest rise between neighbours: >= 0 means it never falls."""
    return min(b - a for a, b in zip(series, series[1:]))


def _farthest(series: List[float]) -> float:
    """The value farthest from zero, sign kept."""
    return max(series, key=abs)


def _off_paper(paper: Dict[str, Any], **filters: Any) -> Measure:
    """How many cells of the one matching row differ from ``paper``."""
    return lambda result: sum(result.value(column, **filters) != expected
                              for column, expected in paper.items())


TPUT = "throughput_mbps"

#: The orderings, saturations, crossovers and trends: one row per claim,
#: in :class:`PaperClaim`'s field order.
_SHAPES: List[tuple] = [
    ("table1-ncache-free", "5", "Table 1: components with a module that "
     "imports NCache (the NCache module itself)", "1 of 5", 1, 1,
     _each(sum, "component", _off_paper(
         {"modules_importing_ncache": "none (verified)"})),
     "table1", "components"),
    ("table2-nfs-original", "5", "Table 2, NFS original: copies per read "
     "hit / miss, write overwritten / flushed off the paper's",
     "2 / 3 / 1 / 2", 0, 0,
     _off_paper(dict(read_hit=2, read_miss=3, write_overwritten=1,
                     write_flushed=2), server="NFS server", mode="original"),
     "table2", "cells"),
    ("table2-nfs-zero-copy", "5", "Table 2, NFS baseline and NCache: "
     "copies per read hit / miss above zero", "0 / 0", 0, 0,
     _each(sum, "mode", _off_paper(dict(read_hit=0, read_miss=0),
                                   server="NFS server"),
           ("baseline", "NCache")), "table2", "cells"),
    ("fig4-ncache-near-baseline", "5.4", "all-miss: NCache against "
     "baseline at 16 and 32 KB, the wider gap", "NCache ~ baseline", -10.0,
     10.0, _each(_farthest, "request_kb", _gain(TPUT, "NCache", "baseline"),
                 (16, 32)), "figure4"),
    ("fig4-original-server-bound", "5.4", "all-miss: original's server CPU "
     "above its storage CPU at 16 and 32 KB, the smaller margin",
     "server CPU saturates", EPS, INF,
     _each(min, "request_kb",
           _versus(sub, _cell("server_cpu_pct", mode="original"),
                   _cell("storage_cpu_pct", mode="original")), (16, 32)),
     "figure4", "pt"),
    ("fig4-ncache-storage-bound", "5.4", "all-miss: NCache's storage CPU "
     "above its server CPU at 16 and 32 KB, the smaller margin",
     "storage CPU saturates", -20.0, INF,
     _each(min, "request_kb",
           _versus(sub, _cell("storage_cpu_pct", mode="NCache"),
                   _cell("server_cpu_pct", mode="NCache")), (16, 32)),
     "figure4", "pt"),
    ("fig4-grows-with-size", "5.4", "all-miss: throughput step between "
     "sizes 4 to 32 KB, the smallest in any mode", "grows with size",
     0.0, INF, _each(min, "mode", _each(_smallest_step, "request_kb",
                                        _cell(TPUT))), "figure4", "MB/s"),
    ("fig5-original-cpu-saturated", "5.4", "all-hit, 1 NIC: original's "
     "server CPU at 16 and 32 KB, the lower", "saturated", 95.0, INF,
     _each(min, "request_kb", _cell("server_cpu_pct", mode="original", nics=1),
           (16, 32)), "figure5"),
    ("fig5-ncache-cpu-saving", "5.4", "all-hit, 1 NIC: original's server CPU "
     "above NCache's at 16 and 32 KB, the smaller margin",
     "up to 42-52 points", EPS, INF,
     _each(min, "request_kb",
           _rise("server_cpu_pct", "mode", "original", "NCache", sub, nics=1),
           (16, 32)), "figure5", "pt"),
    ("fig5-original-flat", "5.4", "all-hit, 2 NICs: original's throughput "
     "at 32 KB over 16 KB", "flat once saturated", -INF, 25.0,
     _rise(TPUT, "request_kb", 32, 16, mode="original", nics=2), "figure5"),
    ("fig5-ncache-grows", "5.4", "all-hit, 2 NICs: NCache's throughput at "
     "32 KB over 16 KB", "still growing", 20.0, INF,
     _rise(TPUT, "request_kb", 32, 16, mode="NCache", nics=2), "figure5"),
    ("fig6a-250mb", "5.5", "kHTTPd SPECweb99: NCache over original, 250 MB "
     "working set", "+10% to +20%", 5.0, INF,
     _gain(TPUT, working_set_mb=250), "figure6a"),
    ("fig6a-baseline-ahead", "5.5", "kHTTPd SPECweb99: baseline over "
     "original, the least of 250 to 900 MB", "about +40%", EPS, INF,
     _each(min, "working_set_mb", _gain(TPUT, "baseline")), "figure6a"),
    ("fig6a-crossover", "5.5", "kHTTPd SPECweb99: NCache's gain at 250 and "
     "500 MB (the lower) above its gain at 750 and 900 MB (the lower)",
     "drops hardest 500 to 750 MB", EPS, INF,
     _versus(sub, _each(min, "working_set_mb", _gain(TPUT), (250, 500)),
             _each(min, "working_set_mb", _gain(TPUT), (750, 900))),
     "figure6a", "pt"),
    ("fig6b-ncache-ahead", "5.5", "kHTTPd all-hit: NCache over original, "
     "the least of 16 to 128 KB", "ahead at every size", EPS, INF,
     _each(min, "request_kb", _gain(TPUT)), "figure6b"),
    ("fig6b-baseline-ahead", "5.5", "kHTTPd all-hit: baseline over NCache, "
     "the least of 16 to 128 KB", "ahead at every size", EPS, INF,
     _each(min, "request_kb", _gain(TPUT, "baseline", "NCache")), "figure6b"),
    ("fig6b-gain-grows", "5.5", "kHTTPd all-hit: step in NCache's gain "
     "between sizes 16 to 128 KB, the smallest", "+8% up to +47%", EPS, INF,
     _each(_smallest_step, "request_kb", _gain(TPUT)), "figure6b", "pt"),
    ("fig7-ncache-ahead", "5.4", "SPECsfs: NCache over original, the least "
     "of 30 to 75% regular", "consistently ahead", EPS, INF,
     _each(min, "pct_regular", _gain("ops_per_sec")), "figure7"),
    ("fig7-gain-grows", "5.4", "SPECsfs: NCache's gain at 75% regular above "
     "its gain at 30%", "18.6 > 16.3", -3.0, INF,
     _each(_smallest_step, "pct_regular", _gain("ops_per_sec"), (30, 75)),
     "figure7", "pt"),
    ("a1-inherit-over-recompute", "ext", "A1, no checksum offload: NCache "
     "inheriting cached checksums over NCache recomputing them",
     "a benefit (1)", EPS, INF,
     _rise(TPUT, "config", "NCache inherit", "NCache recompute"),
     "ablation_checksum"),
    ("a1-inherit-over-original", "ext", "A1, no checksum offload: NCache "
     "inheriting over original", "-", EPS, INF,
     _rise(TPUT, "config", "NCache inherit", "original (sw checksum)"),
     "ablation_checksum"),
    ("a1-inherit-near-offload", "ext", "A1: NCache inheriting in software "
     "against NCache with offload", "-", -10.0, 10.0,
     _rise(TPUT, "config", "NCache inherit", "NCache (offload on)"),
     "ablation_checksum"),
    ("a2-small-fs-cache-cheap", "ext", "A2: worst throughput with a 16 to "
     "128 MB FS cache against the best of 8 to 128 MB",
     "NCache is the L2 (3.4)", -25.0, INF,
     _versus(pct_gain,
             _each(min, "fs_cache_mb", _cell(TPUT), (16, 32, 64, 128)),
             _each(max, "fs_cache_mb", _cell(TPUT))), "ablation_fs_cache"),
    ("a2-fs-hit-ratio-falls", "ext", "A2: FS-cache hit ratio at 128 MB "
     "above that at 8 MB", "-", EPS, INF,
     _rise("fs_hit_ratio", "fs_cache_mb", 128, 8, sub), "ablation_fs_cache",
     "hit ratio"),
    ("a3-remap-on-remaps", "ext", "A3: FHO->LBN remaps with remapping on",
     "-", 1, INF, _cell("remaps", config="remap on"), "ablation_remap",
     "remaps"),
    ("a3-remap-off-none", "ext", "A3: FHO->LBN remaps with remapping off",
     "-", 0, 0, _cell("remaps", config="remap off"), "ablation_remap",
     "remaps"),
    ("a3-throughput-comparable", "ext", "A3: ops/s with remapping off over "
     "remapping on", "-", -25.0, 25.0,
     _rise("ops_per_sec", "config", "remap off", "remap on"),
     "ablation_remap"),
    ("a4-degrades-monotonically", "ext", "A4: throughput step from 1/4 to "
     "1/2 to full NCache capacity, the smaller", "-", 0.0, INF,
     _each(_smallest_step, "capacity_frac", _cell(TPUT), (0.25, 0.5, 1.0)),
     "ablation_capacity", "MB/s"),
    ("a4-degrades-gracefully", "ext", "A4: throughput at 1/4 capacity "
     "against full capacity", "-", -85.0, INF,
     _rise(TPUT, "capacity_frac", 0.25, 1.0), "ablation_capacity"),
    ("a5-gain-grows-with-memcpy", "ext", "A5: step in NCache's gain between "
     "memcpy costs 1 to 8 ns/B, the smallest", "-", EPS, INF,
     _each(_smallest_step, "memcpy_ns_per_byte", _cell("gain_pct")),
     "ablation_memcpy", "pt"),
    ("a5-cheap-memory", "ext", "A5: NCache over original at 1 ns/B memcpy",
     "-", -INF, 60.0, _cell("gain_pct", memcpy_ns_per_byte=1.0),
     "ablation_memcpy"),
    ("a5-expensive-memory", "ext", "A5: NCache over original at 8 ns/B "
     "memcpy", "-", 120.0, INF, _cell("gain_pct", memcpy_ns_per_byte=8.0),
     "ablation_memcpy"),
    ("a6-starved-at-2", "ext", "A6: all-miss throughput with 8 nfsd over 2",
     "-", EPS, INF, _rise(TPUT, "n_daemons", 8, 2), "ablation_daemons"),
    ("a6-saturated-by-16", "ext", "A6: all-miss throughput with 16 nfsd "
     "against 32", "-", -10.0, INF, _rise(TPUT, "n_daemons", 16, 32),
     "ablation_daemons"),
    ("a7-ncache-ahead-under-loss", "ext", "A7: NCache over original, the "
     "least of 0 / 0.5 / 2% UDP loss", "-", EPS, INF,
     _each(min, "loss_pct", _gain(TPUT)), "ablation_loss"),
    ("a7-loss-hurts", "ext", "A7: NCache's throughput at 2% UDP loss over "
     "none", "-", -INF, -EPS,
     _rise(TPUT, "loss_pct", 2.0, 0.0, mode="NCache"), "ablation_loss"),
    ("a7-retransmits", "ext", "A7: NFS retransmissions under NCache at 2% "
     "UDP loss", "-", 1, INF,
     _cell("retransmissions", mode="NCache", loss_pct=2.0), "ablation_loss",
     "retransmissions"),
    ("a8-ready-disk-faster", "ext", "A8: NCache all-miss throughput, "
     "network-ready disk over conventional", "future work (6)", EPS, INF,
     _rise(TPUT, "disk_format", "network-ready", "conventional",
           server="NCache"), "ablation_netdisk"),
    ("a8-ready-disk-saves-storage-cpu", "ext", "A8: NCache storage CPU, "
     "conventional disk above network-ready", "-", EPS, INF,
     _rise("storage_cpu_pct", "disk_format", "conventional", "network-ready",
           sub, server="NCache"), "ablation_netdisk", "pt"),
]


def claims() -> List[PaperClaim]:
    """The registry; ``experiment`` is the result name a claim reads."""
    return [
        PaperClaim(
            "fig4-ncache-16k", "5.4",
            "all-miss: NCache over original at 16 KB",
            "+29% to +36%", 15.0, 60.0,
            _gain("throughput_mbps", request_kb=16), "figure4"),
        PaperClaim(
            "fig4-ncache-32k", "5.4",
            "all-miss: NCache over original at 32 KB",
            "+29% to +36%", 15.0, 60.0,
            _gain("throughput_mbps", request_kb=32), "figure4"),
        PaperClaim(
            "fig5-ncache-32k", "5.4",
            "all-hit, 2 NICs: NCache over original at 32 KB",
            "+92%", 60.0, 120.0,
            _gain("throughput_mbps", request_kb=32, nics=2), "figure5"),
        PaperClaim(
            "fig5-baseline-32k", "5.4",
            "all-hit, 2 NICs: baseline over original at 32 KB",
            "up to +143%", 110.0, 170.0,
            _gain("throughput_mbps", mode_new="baseline", request_kb=32,
                  nics=2), "figure5"),
        PaperClaim(
            "fig6b-16k", "5.5",
            "kHTTPd all-hit: NCache over original at 16 KB",
            "+8%", 2.0, 15.0,
            _gain("throughput_mbps", request_kb=16), "figure6b"),
        PaperClaim(
            "fig6b-128k", "5.5",
            "kHTTPd all-hit: NCache over original at 128 KB",
            "+47%", 20.0, 60.0,
            _gain("throughput_mbps", request_kb=128), "figure6b"),
        PaperClaim(
            "fig6a-500mb", "5.5",
            "kHTTPd SPECweb99: NCache over original, 500 MB working set",
            "+10% to +20%", 5.0, 35.0,
            _gain("throughput_mbps", working_set_mb=500), "figure6a"),
        PaperClaim(
            "fig7-30pct", "5.4",
            "SPECsfs: NCache over original at 30% regular requests",
            "+16.3%", 5.0, 30.0,
            _gain("ops_per_sec", pct_regular=30), "figure7"),
        PaperClaim(
            "fig7-75pct", "5.4",
            "SPECsfs: NCache over original at 75% regular requests",
            "+18.6%", 5.0, 35.0,
            _gain("ops_per_sec", pct_regular=75), "figure7"),
    ] + [PaperClaim(*row) for row in _SHAPES]


def evaluate_all(quick: bool = True) -> List[PaperClaim]:
    """Rerun the experiments behind every claim and check the bands."""
    from .. import experiments

    checked = claims()
    wanted = {claim.experiment for claim in checked}
    results = {sweep.name: experiments.run_sweep(sweep, quick)
               for sweeps in experiments.EXPERIMENTS.values()
               if wanted.intersection(sweep.name for sweep in sweeps)
               for sweep in sweeps}
    return [claim.check(results[claim.experiment]) for claim in checked]


def render_report(checked: List[PaperClaim]) -> str:
    """Plain-text pass/fail report over checked claims."""
    rows = [("claim", "measured", "accepted", "verdict", "paper", "statement")]
    for claim in checked:
        unit = claim.unit if claim.unit == "%" else f" {claim.unit}"
        band = (f"= {claim.low:g}" if claim.low == claim.high else
                f"{claim.low:g} .. {claim.high:g}")
        measured = (f"{claim.measured:+.1f}{unit}"
                    if claim.measured is not None else "n/a")
        verdict = {True: "PASS", False: "FAIL", None: "-"}[claim.passed]
        rows.append((claim.claim_id, measured, band + unit, verdict,
                     claim.paper_value, claim.statement))
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(map(str.ljust, row, widths)).rstrip() for row in rows]
    return "\n".join([lines[0], "-" * len(lines[0])] + lines[1:])


def main() -> int:
    """``python -m repro.analysis.paper`` — the one-call audit."""
    checked = evaluate_all(quick=True)
    print(render_report(checked))
    return 0 if all(c.passed for c in checked) else 1


if __name__ == "__main__":
    raise SystemExit(main())
