"""Golden-number regression locks on the headline results.

Two layers:

* **Table 2 is exact.**  Physical-copy counts are integers determined by
  the data path, not by timing — any drift is a semantic change to the
  copy model and must fail loudly.
* **Figure 4's quick-mode gain is pinned to ±2%.**  Throughput depends
  on every model constant, so it gets a tolerance band around values
  recorded in ``tests/goldens/figure4_quick.json``.

Regenerate the figure-4 golden (after an *intentional* model change)
with::

    PYTHONPATH=src python tests/test_golden_numbers.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import ExperimentResult, ratio
from repro.experiments import figure4, table2
from repro.experiments.common import run_sweep

GOLDEN = Path(__file__).parent / "goldens" / "figure4_quick.json"


@pytest.mark.cells("table2")
class TestTable2Exact:
    @pytest.fixture
    def result(self, sweep_result):
        return sweep_result("table2")

    def test_original_matches_paper_exactly(self, result):
        for server, expected in table2.PAPER_ORIGINAL.items():
            for path, count in expected.items():
                assert result.value(path, server=server,
                                    mode="original") == count, \
                    f"{server} {path}"

    def test_ncache_and_baseline_copy_nothing(self, result):
        checked = 0
        for mode in ("NCache", "baseline"):
            for row in result.rows:
                if row["mode"] != mode:
                    continue
                checked += 1
                for path in ("read_hit", "read_miss", "write_overwritten",
                             "write_flushed"):
                    assert row[path] in (0, "n/a"), (mode, row)
        assert checked == 4  # 2 modes x {NFS server, kHTTPd}


def figure4_quick_gains(rows):
    """Measured quick-mode figure-4 numbers, shaped like the golden."""
    result = ExperimentResult("figure4", "", [], rows)
    out = {"request_kb": {}}
    for kb in (16, 32):
        orig = result.value("throughput_mbps", mode="original", request_kb=kb)
        ncache = result.value("throughput_mbps", mode="NCache", request_kb=kb)
        out["request_kb"][str(kb)] = {
            "original_mbps": round(orig, 3),
            "ncache_mbps": round(ncache, 3),
            "gain_ratio": round(ratio(ncache, orig), 4),
        }
    return out


class TestFigure4Pinned:
    @pytest.mark.cells("figure4")
    def test_gain_within_2pct_of_golden(self, cell_result):
        golden = json.loads(GOLDEN.read_text())
        measured = figure4_quick_gains(
            [cell_result(spec.label).value
             for spec in figure4.SWEEP.specs(quick=True)])
        for kb, want in golden["request_kb"].items():
            got = measured["request_kb"][kb]
            for field in ("original_mbps", "ncache_mbps", "gain_ratio"):
                assert got[field] == pytest.approx(want[field], rel=0.02), \
                    f"{kb}KB {field}: measured {got[field]}, " \
                    f"golden {want[field]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        figure4_quick_gains(run_sweep(figure4.SWEEP, quick=True).rows),
        indent=1) + "\n")
    print(f"wrote {GOLDEN}")
