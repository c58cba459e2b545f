"""Benchmark harness helpers.

Each benchmark regenerates one of the paper's tables/figures.  The full
sweep runs once per benchmark (``pedantic`` with one round — these are
system simulations, not microkernels), its rendered table is written to
``benchmarks/results/<name>.txt``, and headline paper-vs-measured numbers
are attached to the benchmark record as ``extra_info`` together with the
run configuration (mode, worker count) so a saved ``.benchmarks`` record
is only compared against a like-for-like run.

Set ``NCACHE_BENCH_FULL=1`` to run the paper-scale (slow) configurations
instead of the quick ones.  ``--workers N`` (or ``NCACHE_BENCH_WORKERS``)
fans each sweep's grid points over a process pool; simulated results are
identical for every worker count (DESIGN.md §7).
"""

from __future__ import annotations

import inspect
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--workers", type=int,
        default=int(os.environ.get("NCACHE_BENCH_WORKERS", "1")),
        help="process-pool size for experiment grid points "
             "(env NCACHE_BENCH_WORKERS)")


def full_mode() -> bool:
    return os.environ.get("NCACHE_BENCH_FULL", "0") == "1"


def save_result(result) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{result.name}.txt"
    path.write_text(result.render() + "\n")
    return path


def run_experiment(benchmark, run_fn, workers, extra_from_result=None):
    """Run one experiment under pytest-benchmark and persist its table."""
    quick = not full_mode()
    # Closed-form experiments (table1, single ablations) take only
    # ``quick``; sweep runners also accept ``workers``.
    takes_workers = "workers" in inspect.signature(run_fn).parameters
    args = (quick, workers) if takes_workers else (quick,)
    result = benchmark.pedantic(run_fn, args=args, rounds=1, iterations=1)
    save_result(result)
    benchmark.extra_info["experiment"] = result.name
    benchmark.extra_info["notes"] = result.notes
    benchmark.extra_info["mode"] = "quick" if quick else "full"
    benchmark.extra_info["workers"] = workers if takes_workers else 1
    if extra_from_result is not None:
        benchmark.extra_info.update(extra_from_result(result))
    return result


@pytest.fixture
def experiment(benchmark, request):
    workers = request.config.getoption("--workers")

    def runner(run_fn, extra_from_result=None):
        return run_experiment(benchmark, run_fn, workers, extra_from_result)

    return runner
