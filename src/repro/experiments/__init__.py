"""One module per paper table/figure, plus extensions and ablations.

:data:`EXPERIMENTS` is the one list of them: the CLI
(``python -m repro.experiments <name>``, the one entry point) and the
paper audit (:func:`repro.analysis.paper.evaluate_all`) both read it.
Every result is a :class:`~repro.experiments.common.Sweep` — a table of
:class:`~repro.experiments.common.Cell` values — run by
:func:`~repro.experiments.common.run_sweep`; :data:`SWEEPS` finds one by
its result name.
"""

from __future__ import annotations

from typing import Dict, Tuple

from . import (ablations, adaptive_budget, figure4, figure5, figure6,
               figure7, fleet_churn, fleet_scaling, policy_ablation, table1,
               table2)
from .common import Sweep, run_sweep

#: Every experiment, in report order: the paper's tables and figures,
#: then the extensions.  The default CLI run walks this top to bottom.
EXPERIMENTS: Dict[str, Tuple[Sweep, ...]] = {
    "table1": (table1.SWEEP,),
    "table2": (table2.SWEEP,),
    "figure4": (figure4.SWEEP,),
    "figure5": (figure5.SWEEP,),
    "figure6": (figure6.SWEEP_A, figure6.SWEEP_B),
    "figure7": (figure7.SWEEP,),
    "fleet_scaling": (fleet_scaling.SWEEP,),
    "fleet_churn": (fleet_churn.SWEEP,),
    "adaptive_budget": (adaptive_budget.SWEEP,),
    "ablations": ablations.SWEEPS,
    "policy_ablation": (policy_ablation.SWEEP,),
}

#: Every sweep by its result name (which is also the ``--out`` file stem).
SWEEPS: Dict[str, Sweep] = {sweep.name: sweep
                            for sweeps in EXPERIMENTS.values()
                            for sweep in sweeps}
