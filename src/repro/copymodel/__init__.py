"""CPU cost model and physical/logical copy accounting."""

from .accounting import CopyAccountant, CopyDiscipline, physical_copies
from .costs import DEFAULT_COSTS, CostModel
from .materialize import materialize

__all__ = [
    "CopyAccountant",
    "CopyDiscipline",
    "CostModel",
    "DEFAULT_COSTS",
    "materialize",
    "physical_copies",
]
