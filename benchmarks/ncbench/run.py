#!/usr/bin/env python3
"""ncbench entry point.

One measured run (what ``BENCHMARK.json``'s command is completed to)::

    python3 benchmarks/ncbench/run.py --workload nfs_allhit --seed 1 \\
        --seconds 10 --trace 0     # end-to-end metrics, nothing wrapped
    ... --trace 1                  # per-layer metrics, from a traced run

prints one JSON object as its last line.  Without ``--trace`` it is the
report: every chosen workload, both ways, each in a fresh subprocess,
all metrics by name with units, saved to ``out/report.json``::

    python3 benchmarks/ncbench/run.py [--workload W] [--seed N] [--smoke]
    python3 benchmarks/ncbench/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"

if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"ncbench: no simulator source at {REPO / 'src' / 'repro'}; "
             "the benchmark runs from a checkout of the repository")

_T_IMPORT = time.perf_counter()
sys.path[:0] = [str(REPO / "src"), str(HERE.parent)]
from repro.analysis.paper import claims  # noqa: E402
from repro.servers.config import ServerMode  # noqa: E402

from ncbench import (calib, compare, kernels, measure, oracle, plan,  # noqa: E402
                     spans)
from ncbench.boundaries import BOUNDARIES  # noqa: E402

IMPORT_S = time.perf_counter() - _T_IMPORT

#: Set-up is repeated (and the median reported) while it stays cheap.
SETUP_BUDGET_S = 4.0


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics from an untouched simulator
# ---------------------------------------------------------------------------

def _set_up_again(wl: plan.WorkloadPlan, seed: int, first: measure.Setup,
                  yardstick: calib.Yardstick, reps: int
                  ) -> List[measure.Setup]:
    """Repeat the set-up, for its time only, while that stays cheap."""
    done = [first]
    spent = first.raw_s
    while len(done) < reps and spent < SETUP_BUDGET_S:
        again = measure.set_up(wl, seed, yardstick)
        measure.discard(again)
        done.append(again)
        spent += again.raw_s
    return done


def _probed(run: measure.SliceRun, setup: measure.Setup, seed: int,
            wl: plan.WorkloadPlan) -> Tuple[int, int]:
    """``(attempted, failed)`` of a finished run, its probe included; an
    aborted run counts as one failed op and is not probed."""
    if run.aborted is not None:
        return run.total_ops + 1, 1
    probed, wrong = oracle.probe(setup.target, seed, wl.read_only)
    return run.total_ops + probed, wrong


def run_end_to_end(wl: plan.WorkloadPlan, seed: int, seconds: float,
                   n_slices: int, setups: int) -> dict:
    yardstick = calib.Yardstick()
    setup = measure.set_up(wl, seed, yardstick)
    sim: Dict[str, float] = {}

    def window_end(run: measure.SliceRun) -> None:
        sim.update(measure.sim_metrics(setup.target, run, setup.latency))
        sim["latency_samples"] = len(setup.latency.samples)

    run = measure.run_slices(setup.target, wl.slice_sim_s, n_slices,
                             yardstick, window_end, host_seconds=seconds)
    attempted, failed = _probed(run, setup, seed, wl)
    describe = setup.load.describe()
    # Memory is read before the repeated set-ups, which would add to it.
    rss_mb = measure.peak_rss_mb()
    measure.discard(setup)
    done = _set_up_again(wl, seed, setup, yardstick, setups)
    q1, q2, q3 = measure.quartiles(run.cu_per_op())
    metrics = {
        "host_cu_per_op": measure.midmean(run.cu_per_op()),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(s.ref_s for s in done),
    }
    metrics.update((k, v) for k, v in sim.items() if k.startswith("sim_"))
    return {
        "correct": failed == 0 and len(metrics) == len(plan.END_TO_END),
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "record": {
            "aborted": run.aborted, "describe": describe,
            "slices_run": len(run.host_s), "window_slices": n_slices,
            "slice_sim_s": wl.slice_sim_s,
            "latency_samples": sim.get("latency_samples"),
            "cu_per_op_quartiles": [q1, q2, q3],
            "setup_raw_s": [s.raw_s for s in done],
            "host_s": run.host_s, "ops": run.ops, "calib": run.calib},
    }


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from a traced run and its untraced twin
# ---------------------------------------------------------------------------

#: ``bench.paper_gain_err_pts`` where the paper has no figure to hold the
#: workload against: the model is unvalidated there, and no error is given.
NO_REFERENCE = -1.0


def _paper_interval(claim_id: str) -> Tuple[float, float]:
    """The paper's value or interval for a claim, in percent."""
    claim = next(c for c in claims() if c.claim_id == claim_id)
    numbers = [float(x) for x in re.findall(r"\d+(?:\.\d+)?",
                                            claim.paper_value)]
    return min(numbers), max(numbers)


def distance_to_interval(value: float, low: float, high: float) -> float:
    return max(low - value, 0.0, value - high)


def _paper_gain(wl: plan.WorkloadPlan, seed: int, n_slices: int,
                yardstick: calib.Yardstick, ncache: Dict[str, float]
                ) -> Tuple[float, float]:
    """``(gain %, distance from the paper in points)``: NCACHE (the
    untraced twin's window) over the same window on ORIGINAL."""
    if not wl.paper_claim:
        return 0.0, NO_REFERENCE
    setup = measure.set_up(wl, seed, yardstick, ServerMode.ORIGINAL)
    original: Dict[str, float] = {}
    measure.run_slices(
        setup.target, wl.slice_sim_s, n_slices, yardstick,
        lambda run: original.update(measure.sim_metrics(
            setup.target, run, setup.latency)))
    measure.discard(setup)
    gain = 100.0 * (ncache[wl.gain_metric] / original[wl.gain_metric] - 1.0)
    return gain, distance_to_interval(gain, *_paper_interval(wl.paper_claim))


def _traced_boundaries(tracer: spans.Tracer, checker: oracle.Oracle) -> list:
    """The boundary table plus the harness's own hooks, for install()."""
    def marks_op(original: Any) -> Any:
        def record_latency(meters: Any, latency_s: float) -> None:
            tracer.note_op()
            original(meters, latency_s)
        return record_latency

    around = {
        "repro.sim.stats:MeterSet.record_latency": marks_op,
        "repro.nfs.client:NfsClient.call": checker.around_nfs_call,
        "repro.http.client:HttpClient.get": checker.around_http_get,
    }
    # The oracle's own work is a ``bench`` span, not the client's.
    checker.check_read = tracer.wrap(  # type: ignore[method-assign]
        checker.check_read, "bench", "Oracle.check_read")
    checker.check_get = tracer.wrap(  # type: ignore[method-assign]
        checker.check_get, "bench", "Oracle.check_get")
    return [(b.layer, b.target, around.get(b.target)) for b in BOUNDARIES]


def _attribution(before: spans.Snapshot, after: spans.Snapshot,
                 traced: measure.SliceRun, twin: measure.SliceRun
                 ) -> Dict[str, float]:
    """Per-layer host attribution of the traced window.

    What the wrappers themselves cost is everything the traced run took
    beyond its untraced twin and the oracle, spread evenly over the
    spans; ``fold_by_layer`` takes it off the layers and books it to
    ``bench``.
    """
    ops = max(1, traced.total_ops)
    cu_ns = 1e9 * statistics.fmean(traced.calib)
    traced_ns = 1e9 * sum(traced.host_s)
    oracle_ns = spans.fold_by_layer(before, after)["bench"][1]
    n_spans = sum(after[key][1] - before[key][1] for key in after)
    per_span = max(0.0, (traced_ns - twin.host_cu() * cu_ns - oracle_ns)
                   / max(1, n_spans))
    share_in = spans.inside_share()
    layers = spans.fold_by_layer(before, after, per_span * share_in,
                                 per_span * (1.0 - share_in))
    total = sum(self_ns for _calls, self_ns in layers.values())
    simulator = total - layers["bench"][1]
    out = {"bench.attribution_coverage_pct": 100.0 * total / traced_ns,
           "bench.trace_overhead_pct":
               100.0 * (traced.host_cu() / twin.host_cu() - 1.0)}
    for layer in plan.LAYERS:
        calls, self_ns = layers.get(layer, (0, 0.0))
        out[f"{layer}.self_cu_per_op"] = self_ns / ops / cu_ns
        out[f"{layer}.calls_per_op"] = calls / ops
        # A simulator layer's share is of the simulator's own time;
        # the harness's is of the whole traced run.
        out[f"{layer}.self_share_pct"] = 100.0 * self_ns / (
            total if layer == "bench" else simulator)
    return out


def run_per_layer(wl: plan.WorkloadPlan, seed: int, n_slices: int) -> dict:
    problems: List[str] = []
    metrics: Dict[str, float] = {}
    yardstick = calib.Yardstick()

    # 1. The untraced twin: model counters, and the reference for the
    #    traced run's slice boundaries and host cost.
    setup = measure.set_up(wl, seed, yardstick)
    lifetime = measure.lifetime_counts(setup.target)
    twin_sim: Dict[str, float] = {}

    def twin_end(run: measure.SliceRun) -> None:
        metrics.update(measure.model_metrics(setup.target, run, lifetime))
        metrics["sim.latency_p99_us"] = setup.latency.percentile_us(0.99)
        twin_sim.update(measure.sim_metrics(setup.target, run,
                                            setup.latency))

    twin = measure.run_slices(setup.target, wl.slice_sim_s, n_slices,
                              yardstick, twin_end)
    attempted, failed = _probed(twin, setup, seed, wl)
    if twin.aborted is not None:
        problems.append(f"untraced run aborted: {twin.aborted}")
    describe = setup.load.describe()
    setup_raw_s = setup.raw_s
    measure.discard(setup)

    # 2. The traced run: same workload, seed and slices, wrapped.
    tracer = spans.Tracer()
    checker = oracle.Oracle()
    uninstall = spans.install(tracer, _traced_boundaries(tracer, checker))
    try:
        setup = measure.set_up(wl, seed, yardstick)
        checker.image = measure.testbeds_of(setup.target)[0].image
        tracer.start_recording()
        before = tracer.snapshot()
        traced = measure.run_slices(setup.target, wl.slice_sim_s, n_slices,
                                    yardstick)
        after = tracer.snapshot()
    finally:
        uninstall()
    measure.discard(setup)
    if traced.aborted is not None:
        problems.append(f"traced run aborted: {traced.aborted}")
    if traced.boundaries != twin.boundaries:
        problems.append("traced and untraced runs diverge: cumulative "
                        "(ops, sim_events) differ at a slice boundary")
    OUT.mkdir(exist_ok=True)
    spans.write_chrome_trace(
        OUT / f"{wl.name}.spans.json", tracer,
        {"workload": wl.name, "seed": seed, "ops_recorded": tracer.ops})
    metrics.update(_attribution(before, after, traced, twin))
    if metrics["bench.attribution_coverage_pct"] < 90.0:
        problems.append("attribution coverage below 90%")
    attempted += checker.verified
    failed += checker.mismatched

    # 3. The paper's reference point, the harness's own numbers, kernels.
    gain, err = _paper_gain(wl, seed, n_slices, yardstick, twin_sim)
    q1, q2, q3 = measure.quartiles(twin.cu_per_op())
    metrics.update({
        "bench.failed_ops_pct": 100.0 * failed / max(1, attempted),
        "bench.replies_verified": float(checker.verified),
        "bench.paper_gain_pct": gain,
        "bench.paper_gain_err_pts": err,
        "bench.cu_ns_p50": 1e9 * statistics.median(twin.calib),
        "bench.raw_us_per_op_p50": statistics.median(
            1e6 * h / o for h, o in zip(twin.host_s, twin.ops) if o),
        "bench.cu_per_op_p25": q1,
        "bench.cu_per_op_p50": q2,
        "bench.cu_per_op_p75": q3,
        "bench.setup_raw_s": setup_raw_s,
        "bench.import_s": IMPORT_S,
    })
    metrics.update(kernels.run_kernels(yardstick))
    window = {key: tuple(a - b for a, b in zip(after[key], before[key]))
              for key in after}
    ops = max(1, traced.total_ops)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "record": {
            "problems": problems, "describe": describe,
            "window_slices": n_slices, "slice_sim_s": wl.slice_sim_s,
            "oracle": {"replies": checker.replies,
                       "verified": checker.verified,
                       "skipped": checker.skipped,
                       "mismatched": checker.mismatched},
            "boundaries_exercised": sorted(
                b.target for b in BOUNDARIES
                if window[(b.layer, b.target.partition(":")[2])][1]),
            # Uncorrected: wrapper overhead is still inside these.
            "functions": {
                f"{layer}:{name}": {"calls": calls, "spans": n,
                                    "raw_self_us_per_op": self_ns / ops / 1e3}
                for (layer, name), (calls, n, self_ns, _children)
                in sorted(window.items())}},
    }


# ---------------------------------------------------------------------------
# one measured run
# ---------------------------------------------------------------------------

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _b, _bound in plan.END_TO_END},
    **{name: unit for name, unit, _b in plan.per_layer()}}


def environment() -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform()}


def measured_run(args: argparse.Namespace) -> int:
    wl = plan.BY_NAME[args.workload]
    if args.trace:
        result = run_per_layer(wl, args.seed,
                               args.slices or plan.TRACE_SLICES)
    else:
        result = run_end_to_end(wl, args.seed, args.seconds,
                                args.slices or plan.SIM_SLICES, args.setups)
    record = result.pop("record")
    record.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(),
                  result=result)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}.trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    result["metrics"] = {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# the report: every workload, both ways, each in a fresh subprocess
# ---------------------------------------------------------------------------

def _child(workload: str, seed: int, trace: int, extra: List[str]) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + extra
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}, "exit": done.returncode}
    return {**json.loads(lines[-1]), "exit": done.returncode}


def _commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def report(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [w.name
                                                   for w in plan.WORKLOADS]
    if args.smoke:
        extra = ["--seconds", "0", "--slices", "4", "--setups", "1"]
    else:
        extra = ["--seconds", str(args.seconds), "--slices",
                 str(args.slices), "--setups", str(args.setups)]
    out: Dict[str, Any] = {
        "commit": _commit(), "seed": args.seed, "options": extra,
        "environment": environment(), "workloads": {}}
    ok = True
    for name in names:
        merged: Dict[str, Any] = {"runs": [], "per_layer": {},
                                  "correct": True, "attempted": 0,
                                  "failed": 0}
        for trace in [0] * args.repeat + ([] if args.smoke else [1]):
            child = _child(name, args.seed, trace, extra)
            if trace:
                merged["per_layer"] = child["metrics"]
            else:
                merged["runs"].append(child["metrics"])
            merged["correct"] &= child["correct"] and child["exit"] == 0
            merged["attempted"] += child["attempted"]
            merged["failed"] += child["failed"]
        out["workloads"][name] = merged
        ok &= merged["correct"]
        print(f"\n== {name}: {'ok' if merged['correct'] else 'FAILED'}  "
              f"({merged['attempted']} attempted, {merged['failed']} "
              f"failed)")
        for metric, unit, _better, _bound in plan.END_TO_END:
            values = [run[metric]["value"] for run in merged["runs"]
                      if metric in run]
            if values:
                print(f"  {metric:36s} {statistics.median(values):14.4f} "
                      f"{unit}")
        for metric, entry in merged["per_layer"].items():
            print(f"  {metric:36s} {entry['value']:14.4f} {entry['unit']}")
    OUT.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else OUT / "report.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"\nreport written to {path}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(plan.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=plan.RUN_SECONDS,
                        help="host seconds one timed run samples for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measured run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--slices", type=int, default=0,
                        help="override the simulated window's slice count")
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups timed per untraced run (median)")
    parser.add_argument("--smoke", action="store_true",
                        help="report mode: 4-slice untraced runs only")
    parser.add_argument("--repeat", type=int, default=1,
                        help="report mode: untraced runs per workload")
    parser.add_argument("--out", help="report mode: where to write it")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply every metric's bound to two reports")
    parser.add_argument("--manifest", action="store_true",
                        help="print the content of BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(plan.manifest(), indent=2))
        return 0
    if args.compare:
        return compare.main(*args.compare)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return measured_run(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
