"""The adaptive-budget experiment: acceptance and golden lock.

The headline claim of the arbiter work is behavioral — "the controller
beats every static split across the phase-shifting day" — so it is
locked two ways:

* the **invariant** (adaptive ``mean_bpk`` strictly below the best
  static split's) must hold on every run, whatever the numbers;
* the **golden** pins the quick-grid values to ±2% so silent model
  drift fails loudly (``tests/goldens/adaptive_budget_quick.json``).

The grid's five cells run once, on the session's cell pool.  That the
worker count cannot move a row is CI's ``sweep-identity`` job, which
runs this grid at ``--workers 1`` and ``--workers 2`` and diffs them.

Regenerate the golden (after an *intentional* model change) with::

    PYTHONPATH=src python tests/test_adaptive_budget.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import adaptive_budget
from repro.experiments.common import run_sweep

GOLDEN = Path(__file__).parent / "goldens" / "adaptive_budget_quick.json"


pytestmark = pytest.mark.cells("adaptive_budget")


@pytest.fixture
def result(sweep_result):
    return sweep_result("adaptive_budget")


def quick_rows(result):
    """Measured quick-grid rows, shaped like the golden."""
    return {row["split"]: {col: row[col] for col in
                           ("fs_mb", "read_bpk", "write_bpk", "web_bpk",
                            "mean_bpk")}
            for row in result.rows}


class TestAcceptance:
    def test_grid_is_complete(self, result):
        splits = [row["split"] for row in result.rows]
        assert splits == [str(f) for f in
                          adaptive_budget.STATIC_FRACTIONS] + ["ghost"]

    def test_adaptive_beats_every_static_split(self, result):
        ghost = result.value("mean_bpk", split="ghost")
        for frac in adaptive_budget.STATIC_FRACTIONS:
            static = result.value("mean_bpk", split=str(frac))
            assert ghost < static, \
                f"ghost {ghost} not below static {frac} ({static})"

    def test_controller_actually_moved_bytes(self, result):
        assert result.value("moves", split="ghost") > 0
        assert result.value("moved_mb", split="ghost") > 0
        for frac in adaptive_budget.STATIC_FRACTIONS:
            assert result.value("moves", split=str(frac)) == 0

    def test_total_budget_is_constant_across_points(self, result):
        # fs_mb differs per split but every point runs the same total
        # (quick scale: 56 MB ram - 6 MB carveout = 50 MB); the static
        # fractions must land where they were asked to.
        for frac in adaptive_budget.STATIC_FRACTIONS:
            got = result.value("fs_mb", split=str(frac))
            assert got == pytest.approx(50.0 * float(frac), rel=0.01)


class TestGoldenPinned:
    def test_quick_grid_within_2pct_of_golden(self, result):
        golden = json.loads(GOLDEN.read_text())
        for split, want in golden.items():
            row = next(r for r in result.rows if r["split"] == split)
            for field, value in want.items():
                assert row[field] == pytest.approx(value, rel=0.02), \
                    f"{split} {field}: measured {row[field]}, " \
                    f"golden {value}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(quick_rows(run_sweep(
        adaptive_budget.SWEEP, quick=True, workers=2)), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
