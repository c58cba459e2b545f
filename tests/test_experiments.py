"""Experiment harness: Table 1/2 exactness and single-point figure shapes.

The full sweeps are held to the paper by ``python -m repro.analysis.paper``
(CI's ``paper-audit``); here we verify the machinery and a few of its
claims on single, cheap points, against the bands that registry holds.
"""

import ast
import pickle
from dataclasses import replace
from importlib import import_module
from pathlib import Path

import pytest

from repro import experiments
from repro.analysis import ExperimentResult, pct_gain, ratio
from repro.analysis.paper import claims
from repro.cache import POLICIES
from repro.copymodel import CostModel
from repro.experiments import EXPERIMENTS, SWEEPS, figure5, \
    policy_ablation, table1, table2
from repro.experiments.common import Cell, run_cell, run_sweep, variant, \
    warm_caches
from repro.servers import MB, ServerMode, TestbedSpec
from repro.workloads import SpecWebWorkload


class TestAnalysis:
    def test_result_filtering(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(a=1, b="one")
        result.add_row(a=2, b="two")
        assert result.value("b", a=2) == "two"
        assert result.column("a") == [1, 2]
        with pytest.raises(KeyError):
            result.value("b", a=3)

    def test_render_contains_rows_and_notes(self):
        result = ExperimentResult("x", "Title", ["col"])
        result.add_row(col=3.14159)
        result.add_note("a note")
        text = result.render()
        assert "Title" in text and "3.14" in text and "a note" in text

    @pytest.mark.parametrize("value, shown", [
        (99.996, "100"), (99.994, "99.99"), (100.0, "100"),
        (0.9996, "1.00"), (0.9994, "0.999"), (1.0, "1.00"),
        (999.5, "1000"), (-99.996, "-100"), (0.0, "0"), (7, "7")])
    def test_precision_follows_the_rounded_magnitude(self, value, shown):
        # 99.996 and 100.0 both show as 100: the digits are chosen from
        # what the cell rounds to, not from the value before rounding.
        assert ExperimentResult._fmt(value) == shown

    def test_ratio_helpers(self):
        assert ratio(150, 100) == 1.5
        assert pct_gain(150, 100) == pytest.approx(50.0)
        assert ratio(1, 0) == float("inf")


class TestTable1:
    def test_substrate_is_ncache_free(self):
        report = table1.audit()
        for component, info in report.items():
            if component == "NCache module (standalone)":
                continue
            assert info["imports_ncache"] == [], component

    def test_rendered_table(self):
        result = run_sweep(table1.SWEEP)
        assert len(result.rows) == 5


class TestTable2:
    def test_original_matches_paper_exactly(self):
        nfs = table2.nfs_copy_counts(ServerMode.ORIGINAL)
        assert nfs == {"read_hit": 2, "read_miss": 3,
                       "write_overwritten": 1, "write_flushed": 2}
        web = table2.web_copy_counts(ServerMode.ORIGINAL)
        assert web == {"read_hit": 1, "read_miss": 2}

    def test_ncache_is_zero_copy(self):
        nfs = table2.nfs_copy_counts(ServerMode.NCACHE)
        assert set(nfs.values()) == {0}
        web = table2.web_copy_counts(ServerMode.NCACHE)
        assert set(web.values()) == {0}

    def test_baseline_is_zero_copy(self):
        nfs = table2.nfs_copy_counts(ServerMode.BASELINE)
        assert set(nfs.values()) == {0}


class TestFigureShapes:
    """Single-point checks of the paper's qualitative results."""

    @pytest.fixture(scope="class")
    def allhit_32k(self, cell_result):
        return {mode: cell_result(f"figure5/{mode.value}/2nic/32768").value
                for mode in (ServerMode.ORIGINAL, ServerMode.BASELINE,
                             ServerMode.NCACHE)}

    @staticmethod
    def in_band(claim_id, measured):
        """Whether the registry's claim accepts ``measured``."""
        claim, = [c for c in claims() if c.claim_id == claim_id]
        claim.measured = measured
        return claim.passed

    def test_allhit_ordering(self, allhit_32k):
        orig = allhit_32k[ServerMode.ORIGINAL]["throughput_mbps"]
        ncache = allhit_32k[ServerMode.NCACHE]["throughput_mbps"]
        base = allhit_32k[ServerMode.BASELINE]["throughput_mbps"]
        assert orig < ncache < base

    def test_allhit_ncache_gain_near_paper(self, allhit_32k):
        orig = allhit_32k[ServerMode.ORIGINAL]["throughput_mbps"]
        ncache = allhit_32k[ServerMode.NCACHE]["throughput_mbps"]
        assert self.in_band("fig5-ncache-32k", pct_gain(ncache, orig))

    def test_allhit_baseline_gain_near_paper(self, allhit_32k):
        orig = allhit_32k[ServerMode.ORIGINAL]["throughput_mbps"]
        base = allhit_32k[ServerMode.BASELINE]["throughput_mbps"]
        assert self.in_band("fig5-baseline-32k", pct_gain(base, orig))

    def test_original_cpu_saturated(self, allhit_32k):
        # The claim reads the 1-NIC panel; original is no less saturated
        # with two.
        assert self.in_band(
            "fig5-original-cpu-saturated",
            allhit_32k[ServerMode.ORIGINAL]["server_cpu_pct"])

    def test_web_allhit_improvement_grows_with_size(self, cell_result):
        small, large = (
            {m: cell_result(f"figure6b/{m.value}/allhit/{size}")
             .value["throughput_mbps"]
             for m in (ServerMode.ORIGINAL, ServerMode.NCACHE)}
            for size in (16384, 131072))
        gain_small = pct_gain(small[ServerMode.NCACHE],
                              small[ServerMode.ORIGINAL])
        gain_large = pct_gain(large[ServerMode.NCACHE],
                              large[ServerMode.ORIGINAL])
        assert gain_large > gain_small
        assert gain_small > 0


class TestWarmStart:
    def test_warm_caches_respects_capacity_original(self):
        testbed = TestbedSpec.web(ServerMode.ORIGINAL,
                                  server_ram_bytes=160 * MB,
                                  server_kernel_carveout=32 * MB,
                                  connections_per_client=1).build()
        testbed.setup()
        workload = SpecWebWorkload(testbed, working_set_bytes=256 * MB)
        warm_caches(testbed, workload.paths)
        assert testbed.cache.used_bytes <= testbed.cache.capacity_bytes
        assert len(testbed.cache) == testbed.cache.capacity_blocks

    def test_warm_caches_hottest_resident_ncache(self):
        testbed = TestbedSpec.web(ServerMode.NCACHE,
                                  server_ram_bytes=160 * MB,
                                  server_kernel_carveout=32 * MB,
                                  ncache_fs_cache_bytes=16 * MB,
                                  connections_per_client=1).build()
        testbed.setup()
        workload = SpecWebWorkload(testbed, working_set_bytes=256 * MB)
        warm_caches(testbed, workload.paths)
        store = testbed.ncache.store
        assert store.used_bytes <= store.capacity_bytes
        assert store.n_chunks > 0
        # The hottest file's first block must be resident.
        from repro.core.keys import LbnKey

        hottest = testbed.image.lookup(workload.paths[0])
        assert store.peek_lbn(LbnKey(0, hottest.start_lbn)) is not None


class TestPolicyAblation:
    def test_grid_covers_every_policy(self):
        specs = policy_ablation.SWEEP.specs(quick=True)
        assert len(specs) == len(POLICIES) * len(policy_ablation.WORKLOADS)
        labels = {spec.label for spec in specs}
        for policy in POLICIES:
            assert f"policy_ablation/specsfs/{policy}" in labels

    def test_one_cell_reports_all_columns(self, cell_result):
        row = cell_result("policy_ablation/specweb/clock").value
        assert row["policy"] == "clock"
        assert row["ops_per_sec"] > 0
        assert 0.0 < row["hit_pct"] <= 100.0
        for col in ("ghost_hit_pct", "fs_ghost_pct", "copied_kb_per_op"):
            assert row[col] >= 0.0


class TestCellsAreValues:
    """What the table-of-cells form is for: one cell, reached from
    outside, replaced, and run."""

    @staticmethod
    def described(cell):
        """Everything ``run_cell`` builds and drives, as comparable
        values (a ``partial`` compares by identity; its parts do not)."""
        load = cell.workload
        return (cell.spec, load.func, load.args, load.keywords, cell.ranked,
                cell.before_load, cell.cut)

    @pytest.mark.parametrize("mode", [ServerMode.ORIGINAL,
                                      ServerMode.NCACHE], ids=str)
    def test_figure5b_cell_is_the_base_of_a1_a5_a7(self, mode, cell_result):
        """Figure 5(b) at 32 KB, A1 "offload on" and A5 at 3.0 ns/B are
        one value — nothing to run twice.  A7 at 0 % loss differs by its
        ``before_load`` alone, so it is run: same row, same events."""
        base = figure5.SWEEP.cell(f"{mode.value}/2nic/32768")
        for sweep, label in (
                ("ablation_checksum", f"{mode.label} (offload on)"),
                ("ablation_memcpy", f"{mode.value}/3.0")):
            assert self.described(SWEEPS[sweep].cell(label)) \
                == self.described(base)
        lossless = SWEEPS["ablation_loss"].cell(f"0.0/{mode.value}")
        assert lossless.before_load is not None
        assert self.described(replace(lossless, before_load=None)) \
            == self.described(base)
        figure = cell_result(f"figure5/{mode.value}/2nic/32768")
        again = cell_result(f"ablation_loss/0.0/{mode.value}")
        assert again.value["throughput_mbps"] \
            == figure.value["throughput_mbps"]
        assert again.value["retransmissions"] == 0
        assert again.sim_events == figure.sim_events

    def test_replacing_the_cost_model_is_a5s_row(self, cell_result):
        """README's sentence, executed: ``dataclasses.replace`` of the
        Figure 5(b) cell's cost model is A5's 5 ns/B cell — as a value
        in both modes, and bit for bit where the copy cost is paid
        (NCache's throughput does not move with it)."""
        slow = CostModel(memcpy_ns_per_byte=5.0)
        replaced = {}
        for mode in (ServerMode.ORIGINAL, ServerMode.NCACHE):
            cell = SWEEPS["figure5"].cell(f"{mode.value}/2nic/32768")
            replaced[mode] = replace(cell, spec=replace(
                cell.spec, config=replace(cell.spec.config, costs=slow)))
            assert replaced[mode] == variant(cell, cell.label, cell.axes,
                                             costs=slow)
            assert self.described(replaced[mode]) == self.described(
                SWEEPS["ablation_memcpy"].cell(f"{mode.value}/5.0"))
        by_hand = run_cell(replaced[ServerMode.ORIGINAL], quick=True)
        a5 = cell_result("ablation_memcpy/original/5.0").value
        assert by_hand["throughput_mbps"] == a5["throughput_mbps"]
        assert by_hand["throughput_mbps"] < cell_result(
            "figure5/original/2nic/32768").value["throughput_mbps"]

    def test_a5_pairs_its_cells_into_one_row(self):
        row, = SWEEPS["ablation_memcpy"].assemble(
            [{"memcpy_ns_per_byte": 5.0, "throughput_mbps": 50.0},
             {"memcpy_ns_per_byte": 5.0, "throughput_mbps": 100.0}])
        assert row == {"memcpy_ns_per_byte": 5.0, "original_mbps": 50.0,
                       "ncache_mbps": 100.0, "gain_pct": 100.0}


class TestRegistry:
    def test_every_experiment_module_is_listed_once(self):
        package = Path(experiments.__file__).parent
        modules = {path.stem for path in package.glob("*.py")} \
            - {"__init__", "__main__", "common", "parallel"}
        assert set(EXPERIMENTS) == modules
        produced = [sweep.name for sweeps in EXPERIMENTS.values()
                    for sweep in sweeps]
        assert len(produced) == len(set(produced))
        assert produced == list(SWEEPS)

    def test_cli_choices_are_the_registry_keys(self):
        from repro.experiments.__main__ import build_parser

        positional = [action for action in build_parser()._actions
                      if action.dest == "experiments"][0]
        assert [c for c in positional.choices if c] == list(EXPERIMENTS)

    def test_every_claim_reads_a_result_the_registry_produces(self):
        assert {claim.experiment for claim in claims()} <= set(SWEEPS)

    @pytest.mark.parametrize("name", ["table1", "table2"])
    def test_declared_result_names_are_what_run_returns(self, name):
        for sweep in EXPERIMENTS[name]:
            result = run_sweep(sweep, True, 1, None)
            assert result.name == sweep.name
            assert result.columns == list(sweep.columns)
            assert result.rows and result.notes

    @pytest.mark.parametrize("sweep", SWEEPS.values(), ids=list(SWEEPS))
    def test_every_cell_is_a_labelled_picklable_value(self, sweep):
        for quick in (True, False):
            cells = sweep.cells(quick)
            labels = [cell.label for cell in cells]
            assert len(labels) == len(set(labels)), sweep.name
            for cell, spec in zip(cells, sweep.specs(quick)):
                assert pickle.loads(pickle.dumps(spec)) is not None
                if isinstance(cell, Cell):
                    assert spec.label == f"{sweep.name}/{cell.label}"
                    assert set(cell.axes) < set(sweep.columns) \
                        or sweep.assemble is not None
                    restored = pickle.loads(pickle.dumps(cell))
                    assert restored.spec == cell.spec
                    assert restored.axes == cell.axes

    @staticmethod
    def _calls(path):
        """Names called in ``path``: ``f(...)`` and ``x.f(...)`` give ``f``."""
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                yield getattr(func, "attr", None) or getattr(func, "id", None)

    @staticmethod
    def _calls_by_function(path):
        """``(enclosing top-level function, called name)`` pairs."""
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    yield (getattr(top, "name", None),
                           getattr(func, "attr", None)
                           or getattr(func, "id", None))

    def test_one_way_to_build_and_one_way_to_measure(self):
        """Only ``servers/spec.py`` constructs a testbed, and under
        ``experiments/`` only ``common.py`` writes the measurement
        sequence (the windows and the reset between them) and only
        ``run_cell`` builds a spec and measures it — Table 2's two
        single-request scenarios, which measure nothing, excepted."""
        repo = Path(experiments.__file__).parents[3]
        build, protocol = [], []
        for root in ("src", "tests", "examples"):
            for path in sorted((repo / root).rglob("*.py")):
                rel = path.relative_to(repo).as_posix()
                for name in self._calls(path):
                    if name in ("NfsTestbed", "WebTestbed") \
                            and rel != "src/repro/servers/spec.py":
                        build.append(rel)
                    if name in ("warmup_then_measure",
                                "reset_measurements") \
                            and rel.startswith("src/repro/experiments/") \
                            and rel != "src/repro/experiments/common.py":
                        protocol.append(rel)
        assert build == []
        assert protocol == []
        sites = sorted(
            (path.name, function, name)
            for path in (repo / "src/repro/experiments").glob("*.py")
            for function, name in self._calls_by_function(path)
            if name in ("build", "measure", "measure_segments"))
        assert sites == [
            ("common.py", "run_cell", "build"),
            ("common.py", "run_cell", "measure"),
            ("common.py", "run_cell", "measure_segments"),
            ("table2.py", "nfs_copy_counts", "build"),
            ("table2.py", "web_copy_counts", "build")]

    def test_repro_perf_is_only_the_engine_kernels(self):
        # benchmarks/ncbench/kernels.py imports exactly this.
        from repro.perf.enginebench import run_engine_bench

        assert run_engine_bench(["timer_storm"])[0]["ops"] > 0
        with pytest.raises(ImportError):
            import_module("repro.perf.harness")
