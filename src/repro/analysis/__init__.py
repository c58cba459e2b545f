"""Result containers, ratios, table rendering.

The paper-claims registry is :mod:`repro.analysis.paper`; it is imported
from there, not re-exported here, so that ``python -m
repro.analysis.paper`` executes a module nobody has imported yet.
"""

from .tables import ExperimentResult, pct_gain, ratio

__all__ = ["ExperimentResult", "pct_gain", "ratio"]
