"""Percentiles, markdown rendering, the paper-claims registry, the CLI."""

import pytest

from repro.analysis import ExperimentResult, PaperClaim, claims
from repro.analysis.paper import render_report
from repro.sim.stats import LatencyStats


class TestPercentiles:
    def test_exact_below_reservoir(self):
        stats = LatencyStats()
        for v in range(100):
            stats.record(float(v))
        assert stats.p50 == pytest.approx(50.0, abs=1.0)
        assert stats.p95 == pytest.approx(95.0, abs=1.0)
        assert stats.p99 == pytest.approx(99.0, abs=1.0)

    def test_approximate_above_reservoir(self):
        stats = LatencyStats()
        for v in range(10_000):
            stats.record(float(v % 1000))
        assert 400 <= stats.p50 <= 600
        assert stats.p99 >= 900

    def test_empty_is_zero(self):
        assert LatencyStats().p50 == 0.0

    def test_bad_fraction_rejected(self):
        stats = LatencyStats()
        stats.record(1.0)
        with pytest.raises(ValueError):
            stats.percentile(1.5)

    def test_deterministic(self):
        def fill():
            stats = LatencyStats()
            for v in range(5000):
                stats.record(float((v * 7919) % 97))
            return stats.p50, stats.p95, stats.p99

        assert fill() == fill()

    def test_reset_clears_reservoir(self):
        stats = LatencyStats()
        stats.record(100.0)
        stats.reset()
        assert stats.p99 == 0.0


class TestMarkdown:
    def test_markdown_table_structure(self):
        result = ExperimentResult("x", "A Title", ["a", "b"])
        result.add_row(a=1, b="hi")
        result.add_note("important")
        md = result.to_markdown()
        assert md.startswith("### A Title")
        assert "| a | b |" in md
        assert "| 1 | hi |" in md
        assert "*important*" in md


class TestClaimsRegistry:
    def test_registry_covers_all_figures(self):
        registry = claims()
        experiments = {c.experiment for c in registry}
        assert experiments == {"figure4", "figure5", "figure6a",
                               "figure6b", "figure7"}
        assert len(registry) >= 9

    def test_bands_are_sane(self):
        for claim in claims():
            assert claim.low < claim.high
            assert claim.statement
            assert claim.passed is None  # unchecked

    def test_check_against_synthetic_result(self):
        claim = [c for c in claims() if c.claim_id == "fig5-ncache-32k"][0]
        result = ExperimentResult("figure5", "t",
                                  ["mode", "nics", "request_kb",
                                   "throughput_mbps"])
        result.add_row(mode="original", nics=2, request_kb=32,
                       throughput_mbps=100.0)
        result.add_row(mode="NCache", nics=2, request_kb=32,
                       throughput_mbps=185.0)
        claim.check(result)
        assert claim.measured == pytest.approx(85.0)
        assert claim.passed is True

    def test_failing_claim_detected(self):
        claim = [c for c in claims() if c.claim_id == "fig5-ncache-32k"][0]
        result = ExperimentResult("figure5", "t",
                                  ["mode", "nics", "request_kb",
                                   "throughput_mbps"])
        result.add_row(mode="original", nics=2, request_kb=32,
                       throughput_mbps=100.0)
        result.add_row(mode="NCache", nics=2, request_kb=32,
                       throughput_mbps=105.0)
        claim.check(result)
        assert claim.passed is False

    def test_evaluate_all_runs_the_claimed_registry_entries(self,
                                                            monkeypatch):
        import repro.experiments as experiments
        from repro.analysis import evaluate_all

        class Synthetic(ExperimentResult):
            def value(self, column, mode=None, **filters):
                return 100.0 if mode == "original" else 130.0

        ran = []

        def fake(name, entry):
            def run(quick=True, workers=1, trace_sink=None):
                ran.append(name)
                return [Synthetic(result, "t", []) for result in
                        entry.results]
            return entry._replace(run=run)

        monkeypatch.setattr(experiments, "EXPERIMENTS", {
            name: fake(name, entry)
            for name, entry in experiments.EXPERIMENTS.items()})
        checked = evaluate_all()
        assert ran == ["figure4", "figure5", "figure6", "figure7"]
        assert [c.measured for c in checked] \
            == [pytest.approx(30.0)] * len(claims())

    def test_render_report(self):
        checked = claims()
        checked[0].measured = 30.0
        text = render_report(checked)
        assert "PASS" in text
        assert "paper" in text


class TestExperimentsCli:
    def test_cli_runs_subset(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        code = main(["table1", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert (tmp_path / "table1.txt").exists()

    def test_cli_rejects_unknown(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["figure99"])


class TestIscsiQueueDepth:
    def test_depth_validation(self, sim, network):
        from repro.iscsi import IscsiInitiator
        from repro.net import Endpoint, Host
        from repro.sim import SimulationError

        host = Host(sim, "h")
        host.add_nic(network, "h0")
        with pytest.raises(SimulationError):
            IscsiInitiator(host, "h0", Endpoint("t", 3260), queue_depth=0)

    def test_window_limits_outstanding_commands(self, sim):
        from repro.copymodel import CopyDiscipline
        from repro.sim import AllOf, start
        from conftest import MiniStack, drive

        stack = MiniStack(sim, CopyDiscipline.PHYSICAL)
        stack.initiator._window.capacity = 2
        drive(sim, stack.initiator.connect())
        inode = stack.image.create_file("f", 1 << 20)
        max_seen = [0]

        original_on_message = stack.target._on_message

        def watching(conn, dgram):
            max_seen[0] = max(max_seen[0],
                              stack.initiator._window.in_use)
            yield from original_on_message(conn, dgram)

        stack.target._on_message = watching
        # Re-register the handler on the live connection.
        for conn in stack.storage.stack._connections.values():
            conn.on_message = watching

        def one(i):
            yield from stack.initiator.read(inode.start_lbn + i, 1)

        def job():
            procs = [start(sim, one(i)) for i in range(8)]
            yield AllOf(sim, procs)

        drive(sim, job())
        assert 1 <= max_seen[0] <= 2
