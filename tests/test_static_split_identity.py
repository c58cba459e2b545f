"""StaticSplit arbiter must not perturb the simulation by one event.

The arbiter refactor moved memory-budget ownership out of the caches
and into ``repro.cache.arbiter``.  With the default ``StaticSplit``
arbiter the split is computed once at build time and the controller
schedules **zero** simulator events, so every run must be byte-identical
to the pre-refactor tree.  The golden in
``tests/goldens/static_split_identity.json`` was captured at the commit
*before* the arbiter landed; any drift in ``sim_events`` on these grid
points means the refactor changed behavior it promised not to touch.

The points cover the distinct cache topologies: all three server modes
(original / baseline / NCache), a policy-ablation point, and a
fleet churn run (multiple testbeds, cooperative caching, membership
events).

Regenerate (only for an *intentional* simulation change) with::

    PYTHONPATH=src python tests/test_static_split_identity.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import figure4, fleet_churn, policy_ablation
from repro.experiments.parallel import run_specs

GOLDEN = Path(__file__).parent / "goldens" / "static_split_identity.json"


def identity_specs():
    """Grid points whose event counts the refactor must preserve."""
    specs = [s for s in figure4.SWEEP.specs(quick=True)
             if s.label.endswith("/16384")]
    specs += policy_ablation.SWEEP.specs(quick=True)[:1]
    specs += fleet_churn.SWEEP.specs(quick=True)[:1]
    return specs


def measure():
    """label -> sim_events for every identity grid point."""
    return {rr.label: rr.sim_events
            for rr in run_specs(identity_specs(), workers=1)}


class TestStaticSplitIdentity:
    def test_sim_events_match_pre_refactor_golden(self, cell_result):
        golden = json.loads(GOLDEN.read_text())
        measured = {spec.label: cell_result(spec.label).sim_events
                    for spec in identity_specs()}
        assert measured == golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
