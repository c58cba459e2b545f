"""Engine event-order pinning.

DESIGN.md §7 claims ``--workers N`` can never change simulated results.
That whole sweeps come out byte-identical at one and at two workers is
CI's ``sweep-identity`` job; this file pins what every such run rests
on: a scripted testbed's engine event ordering, against a committed
golden (``tests/goldens/engine_event_log.json``), so a change to heap
tie-breaking or callback scheduling order shows up as a diff, not as
silent drift.

Regenerate the golden (after an *intentional* semantics change) with::

    PYTHONPATH=src python tests/test_parallel_determinism.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim import CPU, AllOf, AnyOf, Resource, Simulator, start

GOLDEN = Path(__file__).parent / "goldens" / "engine_event_log.json"


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
