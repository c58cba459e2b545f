"""The dispatch digest, and what it shows first: the simulation does not
depend on when CPython's cyclic collector runs.

Every run dispatches with the collector paused, and the pause and warm
start hand their objects straight to the oldest generation (DESIGN.md
§5, §11); both are sound only if no simulated outcome depends on
collection timing — no weak reference, finalizer or address decides
what is dispatched.  Two quick warm-started cells run twice: as they
always run, and with the engine's pause swapped for a no-op and young
collections far more frequent than by default, so the collector really
runs while events dispatch.  Their dispatch streams must be
event-for-event identical.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext

import pytest

from repro.experiments import SWEEPS
from repro.experiments.common import run_cell
from repro.obs.trace import TraceBus
from repro.sim import engine

from dispatch_digest import (dispatch_stream, first_difference, recorded,
                             rolling_digest)
from integrity_search import collect_all


def collector_eager(run, monkeypatch):
    """No pause around dispatch, and young collections seven times as
    often as by default; full ones no more often."""
    threshold = gc.get_threshold()
    monkeypatch.setattr(engine, "collector_paused", nullcontext)
    gc.set_threshold(100, 10, 100)
    try:
        return run()
    finally:
        gc.set_threshold(*threshold)
        monkeypatch.undo()


@pytest.mark.parametrize("label", ["figure6a/ncache/250mb",
                                   "figure7/ncache/30pct"])
def test_dispatch_stream_does_not_depend_on_the_collector(label,
                                                          monkeypatch):
    sweep, _, cell_label = label.partition("/")
    cell = SWEEPS[sweep].cell(cell_label)
    collections = []

    def run():
        return recorded(lambda: run_cell(cell, quick=True))

    def count(phase, info):
        if phase == "stop":
            collections.append(info["generation"])

    paused = run()
    assert len(paused) > 10_000
    # Each run's testbed is cyclic and waits in the oldest generation:
    # free it before the next is built, and the last before the next test.
    collect_all()
    gc.callbacks.append(count)
    try:
        eager = collector_eager(run, monkeypatch)
    finally:
        gc.callbacks.remove(count)
        collect_all()
    assert collections, "the collector never ran during the eager run"
    assert first_difference(paused, eager) is None


class TestDigest:
    def test_stream_is_dispatches_only_without_addresses(self):
        bus = TraceBus().enable(engine_events=True)
        bus.emit("engine.dispatch", t=0.0, seq=0, fn="Process._resume")
        bus.emit("nfs.read", cat="nfs", t=0.25)
        bus.emit("engine.dispatch", t=0.5, seq=1,
                 fn="<function <lambda> at 0x7f00deadbeef>")
        assert dispatch_stream([bus]) == [
            (0.0, "Process._resume"), (0.5, "<function <lambda>>")]

    def test_first_difference_is_the_first_differing_event(self):
        base = [(i * 0.25, f"fn{i % 3}") for i in range(40)]
        digest = rolling_digest(base)
        assert first_difference(digest, rolling_digest(base)) is None
        assert first_difference([], []) is None
        for i in (0, 17, 39):
            moved = list(base)
            moved[i] = (moved[i][0], "other")
            assert first_difference(digest, rolling_digest(moved)) == i
        later = base[:17] + [(base[17][0] + 1e-9, base[17][1])] + base[18:]
        assert first_difference(digest, rolling_digest(later)) == 17
        assert first_difference(digest, digest[:25]) == 25
        assert first_difference(digest[:25], digest) == 25
