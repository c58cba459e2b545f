"""One module per paper table/figure, plus extensions and ablations.

:data:`EXPERIMENTS` is the one list of them: the CLI
(``python -m repro.experiments <name>``, the one entry point) and the
paper audit (:func:`repro.analysis.paper.evaluate_all`) both read it.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable, Dict, List, NamedTuple, Tuple

from ..analysis.tables import ExperimentResult
from . import (ablations, adaptive_budget, figure4, figure5, figure6,
               figure7, fleet_churn, fleet_scaling, policy_ablation, table1,
               table2)


class Experiment(NamedTuple):
    """A registry entry.

    ``run(quick, workers, trace_sink)`` returns the entry's results in
    order; ``results`` names them (``ExperimentResult.name``, which is
    also the ``--out`` file stem) without running anything.
    """

    run: Callable[..., List[ExperimentResult]]
    results: Tuple[str, ...]


def _single(module: ModuleType) -> Experiment:
    """A module whose ``run`` returns one result named after the module."""
    return Experiment(
        lambda quick=True, workers=1, trace_sink=None:
            [module.run(quick, workers, trace_sink)],
        (module.__name__.rpartition(".")[2],))


#: Every experiment, in report order: the paper's tables and figures,
#: then the extensions.  The default CLI run walks this top to bottom.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        lambda quick=True, workers=1, trace_sink=None: [table1.run(quick)],
        ("table1",)),
    "table2": _single(table2),
    "figure4": _single(figure4),
    "figure5": _single(figure5),
    "figure6": Experiment(
        lambda quick=True, workers=1, trace_sink=None:
            [figure6.run_working_set(quick, workers, trace_sink),
             figure6.run_allhit(quick, workers, trace_sink)],
        ("figure6a", "figure6b")),
    "figure7": _single(figure7),
    "fleet_scaling": _single(fleet_scaling),
    "fleet_churn": _single(fleet_churn),
    "adaptive_budget": _single(adaptive_budget),
    "ablations": Experiment(
        ablations.run,
        ("ablation_checksum", "ablation_fs_cache", "ablation_remap",
         "ablation_capacity", "ablation_memcpy", "ablation_daemons",
         "ablation_loss", "ablation_netdisk")),
    "policy_ablation": _single(policy_ablation),
}
