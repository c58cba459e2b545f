"""Run the perf harness from the command line.

Usage::

    python -m repro.perf                       # run + record all, quick
    python -m repro.perf figure4 figure6b      # a subset
    python -m repro.perf --workers 4           # fan grid points out
    python -m repro.perf --check               # fail on >20% regression
    python -m repro.perf --check --tolerance 0.5
    python -m repro.perf --no-record --check   # CI: compare only
    python -m repro.perf --engine              # grid + engine microbench
    python -m repro.perf --engine --no-grid --check --no-record
                                               # CI engine smoke job

``--check`` compares against the newest committed ``BENCH_*.json`` of
matching schema/mode (ignoring the record this run just wrote) and
exits non-zero if any experiment's wall-clock regressed beyond the
tolerance band.  With ``--engine`` the scheduler microbench kernels
run too (recorded under the ``"engine"`` key) and ``--check``
additionally fails on an events/sec drop beyond the tolerance;
baselines predating the engine bench compare on wall/RSS only.
"""

from __future__ import annotations

import argparse
import sys
from datetime import date
from pathlib import Path

from .enginebench import run_engine_bench
from .harness import (DEFAULT_RSS_TOLERANCE, DEFAULT_TOLERANCE, GRID,
                      compare, compare_engine, latest_baseline, run_grid,
                      write_record)

RESULTS_DIR = (Path(__file__).resolve().parents[3]
               / "benchmarks" / "results")


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Record/check experiment-suite performance.")
    parser.add_argument("experiments", nargs="*", choices=[*GRID, []],
                        help="subset to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale windows instead of quick mode")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process-pool size for grid points")
    parser.add_argument("--check", action="store_true",
                        help="compare against the latest baseline and "
                             "fail on regression")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE, metavar="FRAC",
                        help="allowed fractional wall-clock growth "
                             "(default: %(default)s)")
    parser.add_argument("--rss-tolerance", type=float,
                        default=DEFAULT_RSS_TOLERANCE, metavar="FRAC",
                        help="allowed fractional peak-RSS growth "
                             "(default: %(default)s); entries with a "
                             "null RSS on either side are skipped")
    parser.add_argument("--engine", action="store_true",
                        help="also run the scheduler microbench kernels")
    parser.add_argument("--no-grid", action="store_true",
                        help="skip the experiment grid (with --engine: "
                             "engine kernels only — the CI smoke job)")
    parser.add_argument("--no-record", action="store_true",
                        help="do not write a BENCH_<date>.json record")
    parser.add_argument("--results-dir", type=Path, default=RESULTS_DIR,
                        help="where BENCH records are written "
                             "(default: benchmarks/results)")
    parser.add_argument("--baseline-dir", type=Path, default=None,
                        help="where --check looks for baselines "
                             "(default: --results-dir)")
    args = parser.parse_args(argv)

    if args.no_grid and not args.engine:
        parser.error("--no-grid without --engine runs nothing")
    if args.no_grid and args.experiments:
        parser.error("--no-grid contradicts naming experiments")

    quick = not args.full
    entries = [] if args.no_grid else run_grid(
        args.experiments or None, quick=quick, workers=args.workers)
    for e in entries:
        rss = (f"{e['peak_rss_kb']} KB" if e["peak_rss_kb"] is not None
               else "n/a")
        print(f"{e['name']:<10} {e['wall_s']:>8.3f}s "
              f"{e['sim_events']:>10d} ev "
              f"{e['events_per_sec']:>9d} ev/s "
              f"rss {rss}")

    engine_entries = []
    if args.engine:
        engine_entries = run_engine_bench()
        for e in engine_entries:
            print(f"engine:{e['name']:<19} {e['wall_s']:>8.3f}s "
                  f"{e['events_per_sec']:>9d} ev/s "
                  f"{e['ops_per_sec']:>9d} op/s")

    written = None
    if not args.no_record:
        written = write_record(entries, args.results_dir,
                               date.today().isoformat(), quick=quick,
                               workers=args.workers,
                               engine=engine_entries or None)
        print(f"recorded: {written}")

    if not args.check:
        return 0
    baseline_dir = args.baseline_dir or args.results_dir
    found = latest_baseline(baseline_dir, quick=quick, exclude=written)
    if found is None:
        print("perf: no comparable baseline found; nothing to check",
              file=sys.stderr)
        return 0
    base_path, baseline = found
    print(f"baseline: {base_path.name} (workers={baseline.get('workers')})")
    failed = False
    for v in compare(entries, baseline, args.tolerance,
                     rss_tolerance=args.rss_tolerance):
        if v["status"] == "new":
            print(f"{v['name']:<10} NEW    {v['wall_s']:>8.3f}s")
            continue
        flag = " [sim drift]" if v["drift"] else ""
        rss = (f" rss x{v['rss_ratio']}" if v["rss_ratio"] is not None
               else " rss n/a")
        print(f"{v['name']:<10} {v['status'].upper():<6} "
              f"{v['wall_s']:>8.3f}s vs {v['baseline_wall_s']:>8.3f}s "
              f"(x{v['ratio']}){rss}{flag}")
        failed = failed or v["status"] == "fail"
    if engine_entries:
        if "engine" not in baseline:
            print(f"perf: baseline {base_path.name} predates the engine "
                  f"bench; engine kernels not compared")
        for v in compare_engine(engine_entries, baseline, args.tolerance):
            if v["status"] == "new":
                print(f"engine:{v['name']:<19} NEW    "
                      f"{v['events_per_sec']:>9d} ev/s")
                continue
            print(f"engine:{v['name']:<19} {v['status'].upper():<6} "
                  f"{v['events_per_sec']:>9d} ev/s vs "
                  f"{v['baseline_events_per_sec']:>9d} ev/s (x{v['ratio']})")
            failed = failed or v["status"] == "fail"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
