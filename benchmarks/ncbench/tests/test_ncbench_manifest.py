"""BENCHMARK.json, the metric tables and the boundary table agree."""

import json
import re
from pathlib import Path

from ncbench import plan, spans
from ncbench.boundaries import BOUNDARIES
from ncbench.kernels import KERNELS

REPO = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_the_manifest():
    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    assert on_disk == plan.manifest()
    assert list(on_disk) == ["command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"]


def test_names_units_and_limits():
    manifest = plan.manifest()
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert 1 <= manifest["run_seconds"] <= 60
    assert len(json.dumps(manifest)) < 64 * 1024


def test_command_names_only_the_benchmarks_own_files():
    manifest = plan.manifest()
    assert manifest["paths"] == ["benchmarks/ncbench"]
    for word in manifest["command"]:
        assert not word.startswith("/") and ".." not in word
        assert len(word) <= 200
    assert manifest["command"][1].startswith(manifest["paths"][0] + "/")


def test_every_kernel_metric_has_a_kernel_and_back():
    assert set(plan.KERNEL_METRICS) == set(KERNELS)


def test_every_boundary_resolves_to_a_callable_in_its_layer():
    seen = set()
    for boundary in BOUNDARIES:
        owner, attr, raw = spans.resolve(boundary.target)
        fn = getattr(raw, "__func__", raw)
        assert callable(fn), boundary
        assert boundary.layer in plan.LAYERS
        # The layer is the package the function lives in.
        assert boundary.target.startswith(f"repro.{boundary.layer}."), \
            boundary
        assert set(boundary.workloads) <= set(plan.BY_NAME)
        assert boundary.target not in seen
        seen.add(boundary.target)
    # Every simulator layer has at least one entry point listed.
    assert {b.layer for b in BOUNDARIES} == set(plan.LAYERS) - {"bench"}
