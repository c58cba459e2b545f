"""Fixed cache budgets: the simulation of these points does not move.

Each cache keeps the byte budget ``TestbedConfig`` computes once — the
paper's configuration-time squeeze of the FS cache under NCache's pinned
buffers (§3.4/§4.1) — and nothing schedules an event to change it.  The
golden in ``tests/goldens/static_split_identity.json`` pins
``sim_events`` for points that cover the distinct cache topologies: all
three server modes (original / baseline / NCache) of Figure 4, and a
fleet churn run (multiple testbeds, cooperative caching, membership
events, the store's cold restart); any drift means a change moved
behavior it promised not to touch.

Regenerate (only for an *intentional* simulation change) with::

    PYTHONPATH=src python tests/test_static_split_identity.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import figure4, fleet_churn
from repro.experiments.parallel import run_specs

GOLDEN = Path(__file__).parent / "goldens" / "static_split_identity.json"


def identity_specs():
    """Grid points whose event counts must not move."""
    specs = [s for s in figure4.SWEEP.specs(quick=True)
             if s.label.endswith("/16384")]
    specs += fleet_churn.SWEEP.specs(quick=True)[:1]
    return specs


def measure():
    """label -> sim_events for every identity grid point."""
    return {rr.label: rr.sim_events
            for rr in run_specs(identity_specs(), workers=1)}


class TestStaticSplitIdentity:
    @pytest.mark.cells(*(spec.label for spec in identity_specs()))
    def test_sim_events_match_pre_refactor_golden(self, cell_result):
        golden = json.loads(GOLDEN.read_text())
        measured = {spec.label: cell_result(spec.label).sim_events
                    for spec in identity_specs()}
        assert measured == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
