"""Worker-count independence and engine event-order pinning.

Two locks on DESIGN.md §7's claim that ``--workers N`` can never change
simulated results:

* the same experiment grid run serially and on a 4-worker pool must
  produce **byte-identical** merged metrics and traces;
* a scripted testbed's engine event ordering is pinned against a
  committed golden (``tests/goldens/engine_event_log.json``), so a
  change to heap tie-breaking or callback scheduling order shows up as
  a diff, not as silent drift.

Regenerate the golden (after an *intentional* semantics change) with::

    PYTHONPATH=src python tests/test_parallel_determinism.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import figure4, fleet_churn, table2
from repro.experiments.common import run_sweep
from repro.experiments.parallel import run_specs
from repro.obs.trace import jsonl_events
from repro.sim import CPU, AllOf, AnyOf, Resource, Simulator, start

GOLDEN = Path(__file__).parent / "goldens" / "engine_event_log.json"


def _comparable(results):
    """Everything about a result list except host-side timings."""
    return json.dumps(
        [{"label": rr.label, "value": rr.value, "report": rr.report,
          "sim_events": rr.sim_events} for rr in results],
        sort_keys=True, default=str)


class TestWorkerCountIndependence:
    def test_table2_grid_identical_1_vs_4_workers(self):
        serial = run_specs(table2.SWEEP.specs(), workers=1)
        pooled = run_specs(table2.SWEEP.specs(), workers=4)
        assert _comparable(serial) == _comparable(pooled)

    def test_table2_rendered_table_identical(self):
        assert (run_sweep(table2.SWEEP, quick=True, workers=1).render()
                == run_sweep(table2.SWEEP, quick=True, workers=4).render())

    def test_figure4_points_and_reports_identical(self, cell_result):
        # Two real throughput points (smallest request size, cheapest),
        # covering the metrics-report capture path table2 doesn't use.
        specs = figure4.SWEEP.specs(quick=True)[:2]
        serial = [cell_result(spec.label) for spec in specs]
        pooled = run_specs(specs, workers=4)
        assert _comparable(serial) == _comparable(pooled)

    def test_fleet_churn_identical_1_vs_4_workers(self, cell_result):
        # Membership churn (crash + cold rejoin under a hot-key storm)
        # must stay worker-count independent down to the dispatch count.
        specs = fleet_churn.SWEEP.specs(quick=True)[:2]
        serial = [cell_result(spec.label) for spec in specs]
        pooled = run_specs(specs, workers=4)
        assert _comparable(serial) == _comparable(pooled)

    def test_merged_trace_identical_1_vs_4_workers(self):
        specs = table2.SWEEP.specs()
        serial, pooled = (
            jsonl_events([bus for rr in run_specs(specs, workers, trace=True)
                          for bus in rr.trace])
            for workers in (1, 4))
        assert (json.dumps(serial, sort_keys=True)
                == json.dumps(pooled, sort_keys=True))


# -- golden engine event log -------------------------------------------------

def scripted_event_log():
    """A small scenario touching every ordering-sensitive engine feature.

    Contended and uncontended resource use, CPU execution, timeouts,
    ``AnyOf`` racing, ``AllOf`` joining and process return values — the
    resulting ``(time, tag)`` log is a fingerprint of the engine's
    dispatch order.
    """
    sim = Simulator()
    log = []

    lock = Resource(sim, capacity=1, name="lock")
    cpu = CPU(sim, cores=2, name="cpu")

    def worker(name, delay, hold):
        yield delay
        log.append([round(sim.now, 9), f"{name}.want"])
        yield from lock.use(hold)
        log.append([round(sim.now, 9), f"{name}.done"])
        return name

    def cruncher():
        yield from cpu.execute(0.25)
        log.append([round(sim.now, 9), "cruncher.done"])
        return "crunched"

    w1 = start(sim, worker("w1", 0.0, 1.0), name="w1")
    w2 = start(sim, worker("w2", 0.5, 1.0), name="w2")  # contends with w1
    crunch = start(sim, cruncher(), name="cruncher")

    def racer():
        index, value = yield AnyOf(sim, [sim.timeout(0.1, "timer"), crunch])
        log.append([round(sim.now, 9), f"racer.first={index}:{value}"])
        names = yield AllOf(sim, [w1, w2])
        log.append([round(sim.now, 9), "racer.all=" + ",".join(names)])

    start(sim, racer(), name="racer")
    sim.run()
    log.append([round(sim.now, 9), "end"])
    return log


class TestGoldenEventLog:
    def test_event_order_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        assert scripted_event_log() == golden

    def test_log_is_stable_across_repeat_runs(self):
        assert scripted_event_log() == scripted_event_log()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(scripted_event_log(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
