"""Unit tests for structured tracing (repro.obs.trace)."""

import json

import pytest

from repro.obs.trace import (
    TraceBus,
    active_session,
    jsonl_events,
    start_tracing,
    stop_tracing,
    tracing,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.sim.engine import Simulator


class _ExplodingClock:
    """A clock whose ``now`` access fails the test if ever touched."""

    @property
    def now(self):
        raise AssertionError("disabled trace bus read the clock")


class TestDisabledBus:
    def test_emit_is_a_noop_and_never_reads_the_clock(self):
        bus = TraceBus(clock=_ExplodingClock())
        bus.emit("ncache.l2_hit", cat="ncache", lbn=7)
        bus.complete("nfs.read", 0.0, cat="nfs")
        assert len(bus) == 0

    def test_disabled_by_default(self):
        assert TraceBus().enabled is False
        assert Simulator().trace.enabled is False


class TestEmission:
    def test_emit_records_fields_and_clock_time(self):
        sim = Simulator()
        sim.trace.enable()
        sim.schedule(1.5, sim.trace.emit, "net.send")
        sim.run()
        (ev,) = sim.trace.events
        assert ev.name == "net.send"
        assert ev.ts == 1.5
        assert ev.ph == "i"

    def test_explicit_time_and_args(self):
        bus = TraceBus().enable()
        bus.emit("ncache.remap", cat="ncache", t=2.0, fho="f", lbn=9)
        (ev,) = bus.events
        assert ev.ts == 2.0
        assert ev.cat == "ncache"
        assert ev.args == {"fho": "f", "lbn": 9}

    def test_complete_records_span_duration(self):
        sim = Simulator()
        sim.trace.enable()
        sim.schedule(3.0, sim.trace.complete, "nfs.read", 1.0)
        sim.run()
        (ev,) = sim.trace.events
        assert ev.ph == "X"
        assert ev.ts == 1.0
        assert ev.dur == pytest.approx(2.0)

    def test_tid_for_is_stable(self):
        bus = TraceBus()
        a = bus.tid_for("server")
        b = bus.tid_for("storage")
        assert a != b
        assert bus.tid_for("server") == a

    def test_disable_keeps_events_clear_drops_them(self):
        bus = TraceBus().enable()
        bus.emit("x", t=0.0)
        bus.disable()
        bus.emit("y", t=1.0)
        assert len(bus) == 1
        bus.clear()
        assert len(bus) == 0


class TestDeterminism:
    @staticmethod
    def _traced_run():
        sim = Simulator()
        sim.trace.enable(engine_events=True)
        for i in range(5):
            sim.schedule(0.1 * i, sim.trace.emit, f"tick.{i}")
        sim.schedule(0.2, sim.trace.emit, "tie")  # heap tie with tick.2
        sim.run()
        return jsonl_events([sim.trace.serialize()])

    def test_identical_runs_yield_identical_traces(self):
        assert self._traced_run() == self._traced_run()

    def test_engine_events_are_recorded_in_dispatch_order(self):
        events = self._traced_run()
        dispatches = [e for e in events if e["name"] == "engine.dispatch"]
        assert len(dispatches) == 6
        times = [e["t"] for e in dispatches]
        assert times == sorted(times)


class TestExporters:
    @staticmethod
    def _bus():
        bus = TraceBus(process_name="NfsTestbed[NCache]").enable()
        bus.emit("nfs.read", cat="nfs", t=0.25,
                 tid=bus.tid_for("server"), xid=1)
        bus.complete("http.get", 0.25, cat="http",
                     tid=bus.tid_for("server"))
        return bus

    def test_chrome_trace_file_structure(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, [TraceBus().serialize(),
                                  self._bus().serialize()])
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} == {e["name"] for e in meta}
        proc = [e for e in meta if e["name"] == "process_name"][1]
        assert proc["args"]["name"] == "NfsTestbed[NCache]"
        assert proc["pid"] == 2  # position in the list written
        read = next(e for e in events if e["name"] == "nfs.read")
        assert read["ts"] == pytest.approx(0.25 * 1e6)  # microseconds
        assert read["args"] == {"xid": 1}

    def test_jsonl_file_parses_line_by_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl_trace(path, [self._bus().serialize()])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        objs = [json.loads(line) for line in lines]
        assert objs[0]["name"] == "nfs.read"
        assert objs[0]["t"] == 0.25  # seconds, not microseconds
        assert objs[1]["ph"] == "X"


class TestSession:
    def test_simulators_built_inside_session_are_adopted(self):
        with tracing() as session:
            sim1 = Simulator()
            sim2 = Simulator()
            assert sim1.trace.enabled and sim2.trace.enabled
            assert session.buses == [sim1.trace, sim2.trace]
            sim1.trace.emit("a", t=0.0)
            assert session.n_events() == 1
        # After the session: new simulators are untouched.
        assert Simulator().trace.enabled is False
        assert active_session() is None

    def test_nested_sessions_are_rejected(self):
        start_tracing()
        try:
            with pytest.raises(RuntimeError):
                start_tracing()
        finally:
            stop_tracing()

    def test_stop_without_start_is_harmless(self):
        assert stop_tracing() is None

    def test_session_writes_all_buses(self, tmp_path):
        with tracing() as session:
            sim = Simulator()
            sim.trace.emit("x", t=0.0)
        path = tmp_path / "session.json"
        session.write_chrome(path)
        doc = json.loads(path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert "x" in names
