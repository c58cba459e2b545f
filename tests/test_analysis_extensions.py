"""Markdown rendering, the paper-claims registry, the CLI."""

from itertools import product

import pytest

from repro.analysis import ExperimentResult
from repro.analysis.paper import claims, evaluate_all, render_report
from repro.experiments import EXPERIMENTS


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


MODES = ("original", "baseline", "NCache")

#: result name -> (sweep axes, measured columns): what each audited
#: experiment's table carries, for stubs that cost no simulation.
TABLES = {
    "table1": ({"component": ("NFS/Web server daemon", "NCache module")},
               ["modules_importing_ncache"]),
    "table2": ({"server": ("NFS server", "kHTTPd"), "mode": MODES},
               ["read_hit", "read_miss", "write_overwritten",
                "write_flushed"]),
    "figure4": ({"mode": MODES, "request_kb": (4, 8, 16, 32)},
                ["throughput_mbps", "server_cpu_pct", "storage_cpu_pct"]),
    "figure5": ({"mode": MODES, "nics": (1, 2), "request_kb": (4, 8, 16, 32)},
                ["throughput_mbps", "server_cpu_pct"]),
    "figure6a": ({"mode": MODES, "working_set_mb": (250, 500, 650, 750, 900)},
                 ["throughput_mbps", "ops_per_sec", "hit_ratio"]),
    "figure6b": ({"mode": MODES, "request_kb": (16, 32, 64, 128)},
                 ["throughput_mbps", "ops_per_sec"]),
    "figure7": ({"mode": MODES, "pct_regular": (30, 45, 60, 75)},
                ["ops_per_sec", "throughput_mbps", "server_cpu_pct"]),
    "ablation_checksum": (
        {"config": ("original (sw checksum)", "NCache inherit",
                    "NCache recompute", "original (offload on)",
                    "NCache (offload on)")}, ["throughput_mbps"]),
    "ablation_fs_cache": ({"fs_cache_mb": (8, 16, 32, 64, 128)},
                          ["throughput_mbps", "fs_hit_ratio"]),
    "ablation_remap": ({"config": ("remap on", "remap off")},
                       ["ops_per_sec", "remaps", "ncache_writebacks",
                        "fho_chunks_left"]),
    "ablation_capacity": ({"capacity_frac": (0.25, 0.5, 0.75, 1.0)},
                          ["throughput_mbps"]),
    "ablation_memcpy": ({"memcpy_ns_per_byte": (1.0, 2.0, 3.0, 5.0, 8.0)},
                        ["original_mbps", "ncache_mbps", "gain_pct"]),
    "ablation_daemons": ({"n_daemons": (2, 4, 8, 16, 32)},
                         ["throughput_mbps", "server_cpu_pct"]),
    "ablation_loss": ({"loss_pct": (0.0, 0.5, 2.0),
                       "mode": ("original", "NCache")},
                      ["throughput_mbps", "retransmissions"]),
    "ablation_netdisk": ({"server": ("original", "NCache"),
                          "disk_format": ("conventional", "network-ready")},
                         ["throughput_mbps", "storage_cpu_pct"]),
}

#: NCache 30 % over original, baseline 50 %, in every stub cell.
LEVEL = {"original": 100.0, "baseline": 150.0, "NCache": 130.0}


def stub(name, level=LEVEL):
    """A table shaped like ``name``'s: every measured cell is its mode's
    level (100 where the table has no mode), rising 1 % per step along
    each sweep axis."""
    axes, measured = TABLES[name]
    result = ExperimentResult(name, name, [*axes, *measured])
    for point in product(*map(enumerate, axes.values())):
        row = {axis: value for axis, (_, value) in zip(axes, point)}
        steps = sum(i for axis, (i, _) in zip(axes, point) if axis != "mode")
        cell = level.get(row.get("mode"), 100.0) * (1 + steps / 100)
        result.add_row(**row, **dict.fromkeys(measured, cell))
    return result


def claim_of(claim_id):
    claim, = [c for c in claims() if c.claim_id == claim_id]
    return claim


class TestClaimsRegistry:
    AUDITED = ["table1", "table2", "figure4", "figure5", "figure6",
               "figure7", "ablations"]

    def test_ids_are_unique(self):
        ids = [c.claim_id for c in claims()]
        assert len(ids) == len(set(ids))

    def test_registry_covers_all_figures(self):
        # Every table the audited entries produce is held to something,
        # and nothing is held to a table no entry produces.
        produced = {sweep.name for entry in self.AUDITED
                    for sweep in EXPERIMENTS[entry]}
        assert {c.experiment for c in claims()} == produced == set(TABLES)
        assert len(claims()) >= 40

    def test_bands_are_sane(self):
        for claim in claims():
            assert claim.low <= claim.high, claim.claim_id
            assert claim.statement and claim.unit
            assert claim.passed is None  # unchecked

    def test_every_measure_reads_its_experiments_columns(self):
        # A misspelt column, axis or row label raises KeyError here
        # instead of a minute into the audit.
        for claim in claims():
            measured = claim.measure(stub(claim.experiment))
            assert isinstance(measured, (int, float)), claim.claim_id

    def test_gain_claims_fail_when_the_modes_swap(self):
        # A check that cannot fail is not evidence: hand NCache's rows
        # to original and every claimed gain must leave its band.
        swapped = dict(LEVEL, original=LEVEL["NCache"],
                       NCache=LEVEL["original"])
        gains = [c for c in claims()
                 if "NCache over original" in c.statement and c.low > 0
                 and "mode" in TABLES[c.experiment][0]]
        assert len(gains) >= 10
        for claim in gains:
            assert claim.measure(stub(claim.experiment)) > 0
            assert claim.check(stub(claim.experiment, swapped)).passed \
                is False, claim.claim_id

    def test_check_against_synthetic_result(self):
        claim = claim_of("fig5-ncache-32k")
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
        claim = claim_of("fig5-ncache-32k")
        result = ExperimentResult("figure5", "t",
                                  ["mode", "nics", "request_kb",
                                   "throughput_mbps"])
        result.add_row(mode="original", nics=2, request_kb=32,
                       throughput_mbps=100.0)
        result.add_row(mode="NCache", nics=2, request_kb=32,
                       throughput_mbps=105.0)
        claim.check(result)
        assert claim.passed is False

    def test_no_effect_at_all_is_not_ahead(self):
        # The mutant an ordering claim most needs to catch is the
        # mechanism silently switched off: exactly equal, run to run.
        claim = claim_of("fig7-ncache-ahead")
        flat = stub("figure7", dict(LEVEL, NCache=LEVEL["original"]))
        assert claim.check(flat).measured == 0.0
        assert claim.passed is False

    def test_folded_claim_reads_the_worst_point(self):
        # One bad size is enough to fail "NCache ahead at every size".
        claim = claim_of("fig6b-ncache-ahead")
        result = stub("figure6b")
        assert claim.check(result).passed is True
        row, = result.rows_where(mode="NCache", request_kb=64)
        row["throughput_mbps"] = 90.0
        assert claim.check(result).passed is False
        assert claim.measured < 0

    def test_evaluate_all_runs_the_claimed_registry_entries(self,
                                                            monkeypatch):
        import repro.experiments as experiments

        ran = []

        def fake(sweep, quick=True, workers=1, trace_sink=None):
            ran.append(sweep)
            return stub(sweep.name)

        monkeypatch.setattr(experiments, "run_sweep", fake)
        checked = evaluate_all()
        assert ran == [sweep for entry in self.AUDITED
                       for sweep in EXPERIMENTS[entry]]
        assert [c.claim_id for c in checked] \
            == [c.claim_id for c in claims()]
        assert all(c.measured is not None for c in checked)

    def test_render_report(self):
        checked = claims()
        checked[0].measured = 30.0
        text = render_report(checked)
        assert "PASS" in text
        assert "paper" in text
        # Each row carries the id, the whole statement, the unit and band.
        for claim in checked:
            row, = [line for line in text.splitlines()
                    if line.startswith(claim.claim_id + " ")]
            assert claim.statement in row and claim.paper_value in row
        assert "+30.0%" in text and "15 .. 60%" in text
        assert "0 .. inf MB/s" in text and "= 0 cells" in text
        assert "1e-09 .. inf pt" in text  # "strictly above zero"


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
