"""``run.py --compare A.json B.json``: apply every metric's bound.

A and B are reports written by ``run.py`` (``--repeat K`` gives each
end-to-end metric K values per workload).  One row per (workload,
end-to-end metric):

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — A's own run-to-run spread (quartile distance over
  median) is wider than the bound, so neither can be said, unless every
  run of one side beats every run of the other;
* ``changed`` — ``sim_*`` rows only: the simulated value moved although
  both reports used the same seed.  The simulator is deterministic, so a
  change meant to speed up the simulator alone must show no such row.

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence

from . import plan


def spread(values: Sequence[float]) -> float:
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(statistics.median(values))


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float, exact: bool = False) -> str:
    """The row's verdict; ``a`` is the parent's runs, ``b`` the change's."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if exact:
        if list(a) == list(b):
            return "ok"
        return "worse" if worse_by > bound else "changed"
    b_always_worse = min(sign * v for v in b) > max(sign * v for v in a)
    b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
    if worse_by > bound:
        if spread(a) > bound and not b_always_worse:
            return "unresolved"
        return "worse"
    if spread(a) > bound and not b_always_better:
        return "unresolved"
    return "ok"


def _values(report: dict, workload: str, metric: str) -> List[float]:
    return [run[metric]["value"]
            for run in report["workloads"][workload]["runs"]
            if metric in run]


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    same_seed = a["seed"] == b["seed"]
    rows: Dict[str, int] = {}
    print(f"{'workload':12s} {'metric':26s} {'A median':>14s} "
          f"{'B median':>14s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric, _unit, better, bound in plan.END_TO_END:
            va = _values(a, workload, metric)
            vb = _values(b, workload, metric)
            if not va or not vb:
                continue
            exact = same_seed and metric.startswith("sim_")
            word = verdict(va, vb, better, bound, exact)
            rows[word] = rows.get(word, 0) + 1
            med_a, med_b = statistics.median(va), statistics.median(vb)
            print(f"{workload:12s} {metric:26s} {med_a:14.4f} {med_b:14.4f} "
                  f"{100 * (med_b - med_a) / abs(med_a):+7.2f}% "
                  f"{100 * bound:5.1f}%  {word}")
    print(", ".join(f"{n} {word}" for word, n in sorted(rows.items())))
    return 1 if rows.get("worse") else 0
