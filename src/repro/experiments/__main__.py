"""Regenerate every table and figure from the command line.

Usage::

    python -m repro.experiments                 # quick mode, all
    python -m repro.experiments --full          # paper-scale windows
    python -m repro.experiments figure5 table2  # a subset
    python -m repro.experiments --workers 4     # fan grid points out
    python -m repro.experiments --out results/  # also write .txt files
    python -m repro.experiments figure4 --trace-out fig4.trace.json

Each experiment prints its rendered table; with ``--out`` the tables are
also written one file per experiment, plus a ``<name>.metrics.json``
report holding every data point's metrics snapshot.  ``--trace-out``
captures a structured trace of every data point and writes the combined
trace — Chrome trace format by default (open in Perfetto or
``chrome://tracing``), JSON-lines when the path ends in ``.jsonl``.

``--workers N`` runs grid points on a process pool.  Simulated results
are identical for every worker count (see DESIGN.md §7); only the
wall-clock changes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..obs.trace import write_chrome_trace, write_jsonl_trace
from . import EXPERIMENTS, run_sweep


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (its ``choices`` are the registry keys)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        choices=[*EXPERIMENTS, []],
                        help="subset to run (default: all)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale windows instead of quick mode")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process-pool size for grid points "
                             "(default: 1, serial)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write rendered tables into")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write a structured trace of the whole run "
                             "(Chrome trace JSON; .jsonl for JSON lines)")
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    names = args.experiments or list(EXPERIMENTS)
    quick = not args.full
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    trace_sink = [] if args.trace_out is not None else None
    try:
        for name in names:
            for sweep in EXPERIMENTS[name]:
                result = run_sweep(sweep, quick, args.workers, trace_sink)
                print(result.render())
                print()
                if args.out is not None:
                    path = args.out / f"{result.name}.txt"
                    path.write_text(result.render() + "\n")
                    metrics_path = args.out / f"{result.name}.metrics.json"
                    metrics_path.write_text(result.to_json() + "\n")
    finally:
        if trace_sink is not None:
            write = (write_jsonl_trace if args.trace_out.suffix == ".jsonl"
                     else write_chrome_trace)
            write(args.trace_out, trace_sink)
            n_events = sum(len(bus["events"]) for bus in trace_sink)
            print(f"trace: {args.trace_out} ({n_events} events)",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
