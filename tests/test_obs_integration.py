"""End-to-end observability: a traced quick Figure-4 point per mode."""

import json
from dataclasses import replace
from functools import partial

import pytest

from repro.experiments import figure4
from repro.experiments.common import run_cell
from repro.obs.trace import tracing
from repro.servers.config import ServerMode

ALL_MODES = (ServerMode.ORIGINAL, ServerMode.BASELINE, ServerMode.NCACHE)


@pytest.mark.smoke
class TestTracedFigure4:
    """One traced 16 KB Figure-4 point for each server mode."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        reports = {}
        with tracing() as session:
            for cell in figure4.cells(quick=True):
                if cell.label.endswith("/16384"):
                    light = partial(cell.workload, streams_per_client=4)
                    run_cell(replace(cell, workload=light), quick=True,
                             reports=reports)
        path = tmp_path_factory.mktemp("trace") / "fig4.trace.json"
        session.write_chrome(path)
        return session, reports, path

    def test_chrome_trace_is_valid_and_loadable(self, traced_run):
        session, _reports, path = traced_run
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"], "trace is empty"
        # One Chrome process per testbed, with a human-readable name.
        procs = [e for e in doc["traceEvents"]
                 if e.get("name") == "process_name"]
        names = [p["args"]["name"] for p in procs]
        assert len(procs) == len(ALL_MODES)
        assert any("NCache" in n for n in names)
        # Every event carries the required Chrome-trace keys.
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            if ev["ph"] != "M":
                assert "ts" in ev

    def test_expected_subsystems_emitted(self, traced_run):
        session, _reports, _path = traced_run
        names = set()
        for bus in session.buses:
            names.update(ev.name for ev in bus.events)
        for expected in ("net.send", "net.receive", "nfs.read",
                         "bcache.miss"):
            assert expected in names, f"missing {expected} (have {names})"
        # The NCache testbed contributes module-level events.
        ncache_names = {ev.name for bus in session.buses
                        for ev in bus.events if ev.name.startswith("ncache.")}
        assert "ncache.substitute" in ncache_names

    def test_metrics_snapshot_has_read_latency_percentiles(self, traced_run):
        _session, reports, _path = traced_run
        assert set(reports) == {f"{m.value}/16384" for m in ALL_MODES}
        for key, report in reports.items():
            hist = report["hosts"]["server"]["histograms"]["nfs.read.latency"]
            assert hist["unit"] == "s"
            assert hist["count"] > 0, key
            assert 0 < hist["p50"] <= hist["p95"] <= hist["p99"], key
            # Request-level latency is mirrored in the testbed registry.
            assert report["metrics"]["histograms"]["request.latency"][
                "count"] > 0

    def test_snapshot_is_json_serialisable(self, traced_run):
        _session, reports, _path = traced_run
        json.dumps(reports)


@pytest.mark.smoke
class TestCliTraceOut:
    """``python -m repro.experiments --trace-out`` end-to-end."""

    def test_trace_out_writes_chrome_json_and_metrics(self, capsys,
                                                      tmp_path):
        from repro.experiments.__main__ import main

        trace_path = tmp_path / "run.trace.json"
        code = main(["table2", "--out", str(tmp_path),
                     "--trace-out", str(trace_path)])
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        metrics_path = tmp_path / "table2.metrics.json"
        report = json.loads(metrics_path.read_text())
        assert report["name"] == "table2"
        assert report["rows"]
        err = capsys.readouterr().err
        assert "trace:" in err

    def test_trace_out_jsonl_variant(self, tmp_path):
        from repro.experiments.__main__ import main

        trace_path = tmp_path / "run.trace.jsonl"
        code = main(["table2", "--trace-out", str(trace_path)])
        assert code == 0
        lines = trace_path.read_text().splitlines()
        assert lines
        json.loads(lines[0])
