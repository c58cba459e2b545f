"""The paper's quantitative claims as a checkable registry.

Every headline number of the evaluation section is encoded as a
:class:`PaperClaim` with an acceptance band (the bands mirror what the
benchmark suite asserts).  ``evaluate_all(quick=True)`` reruns the
relevant experiments and reports pass/fail per claim — a one-call
reproduction audit:

>>> from repro.analysis.paper import evaluate_all
>>> report = evaluate_all()          # a few minutes
>>> all(claim.passed for claim in report)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .tables import ExperimentResult, pct_gain


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
    measure: Callable[[ExperimentResult], float] = field(repr=False,
                                                         default=None)
    experiment: str = ""
    measured: Optional[float] = None

    @property
    def passed(self) -> Optional[bool]:
        if self.measured is None:
            return None
        return self.low <= self.measured <= self.high

    def check(self, result: ExperimentResult) -> "PaperClaim":
        self.measured = self.measure(result)
        return self


def _gain(metric: str, mode_new: str = "NCache", mode_old: str = "original",
          **filters) -> Callable[[ExperimentResult], float]:
    def extract(result: ExperimentResult) -> float:
        new = result.value(metric, mode=mode_new, **filters)
        old = result.value(metric, mode=mode_old, **filters)
        return pct_gain(new, old)

    return extract


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
    ]


def evaluate_all(quick: bool = True) -> List[PaperClaim]:
    """Rerun the experiments behind every claim and check the bands."""
    from ..experiments import EXPERIMENTS

    checked = claims()
    wanted = {claim.experiment for claim in checked}
    results = {result.name: result
               for entry in EXPERIMENTS.values()
               if wanted.intersection(entry.results)
               for result in entry.run(quick)}
    return [claim.check(results[claim.experiment]) for claim in checked]


def render_report(checked: List[PaperClaim]) -> str:
    """Plain-text pass/fail report over checked claims."""
    lines = ["paper claim                                   paper        "
             "measured   verdict",
             "-" * 78]
    for claim in checked:
        measured = (f"{claim.measured:+.1f}%"
                    if claim.measured is not None else "n/a")
        verdict = {True: "PASS", False: "FAIL", None: "-"}[claim.passed]
        lines.append(f"{claim.statement[:44]:44s} {claim.paper_value:>12s} "
                     f"{measured:>10s}   {verdict}")
    return "\n".join(lines)


def main() -> int:
    """``python -m repro.analysis.paper`` — the one-call audit."""
    checked = evaluate_all(quick=True)
    print(render_report(checked))
    return 0 if all(c.passed for c in checked) else 1


if __name__ == "__main__":
    raise SystemExit(main())
