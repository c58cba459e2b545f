"""The traced run, end to end, once per workload (about 15 s each)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ncbench import plan
from ncbench.boundaries import BOUNDARIES

NCBENCH = Path(__file__).resolve().parents[1]

#: Layers the interaction table (README.md) predicts idle, per workload.
IDLE = {
    "nfs_allhit": ("cache", "iscsi", "http", "fleet"),
    "nfs_allmiss": ("http", "fleet"),
    "sfs_mixed": ("http", "fleet"),
    "web_zipf": ("nfs", "rpc", "fleet"),
    "fleet_coop": ("http",),
}


@pytest.fixture(scope="module", params=[w.name for w in plan.WORKLOADS])
def traced(request):
    name = request.param
    done = subprocess.run(
        [sys.executable, str(NCBENCH / "run.py"), "--workload", name,
         "--seed", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((NCBENCH / "out" / f"{name}.trace1.json").read_text())
    return name, done.returncode, result, record


def test_traced_run_is_correct_and_prints_every_per_layer_metric(traced):
    name, code, result, record = traced
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert record["problems"] == []  # includes traced == untraced slices
    expected = {n: u for n, u, _b in plan.per_layer()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["bench.failed_ops_pct"] == 0.0
    assert values["bench.replies_verified"] >= 500
    assert values["bench.attribution_coverage_pct"] >= 90.0


def test_every_boundary_is_exercised_where_the_table_says(traced):
    name, _code, _result, record = traced
    exercised = set(record["boundaries_exercised"])
    missing = [b.target for b in BOUNDARIES
               if name in b.workloads and b.target not in exercised]
    assert not missing, f"wrapped but never reached on {name}: {missing}"


def test_idle_layers_stay_idle_and_shares_add_up(traced):
    name, _code, result, _record = traced
    values = {n: m["value"] for n, m in result["metrics"].items()}
    for layer in IDLE[name]:
        assert values[f"{layer}.self_share_pct"] < 1.0, (name, layer)
    simulator = [values[f"{layer}.self_share_pct"]
                 for layer in plan.LAYERS if layer != "bench"]
    assert abs(sum(simulator) - 100.0) < 1e-6
    # The corrected layer costs add up to about the untraced cost.
    layers_cu = sum(values[f"{layer}.self_cu_per_op"]
                    for layer in plan.LAYERS if layer != "bench")
    assert 0.7 < layers_cu / values["bench.cu_per_op_p50"] < 1.4
