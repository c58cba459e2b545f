"""Discrete-event simulation substrate (engine, processes, resources, stats)."""

from .engine import MS, NS, US, AllOf, AnyOf, Event, SimulationError, Simulator
from .process import Process, start
from .resources import CPU, Link, Resource, Store
from .stats import (
    Counter,
    CounterSet,
    MeterSet,
    ThroughputMeter,
    UtilizationWindow,
)
from .rng import ZipfSampler, substream, zipf_weights

__all__ = [
    "AllOf",
    "AnyOf",
    "CPU",
    "Counter",
    "CounterSet",
    "Event",
    "Link",
    "MS",
    "MeterSet",
    "NS",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "ThroughputMeter",
    "US",
    "UtilizationWindow",
    "ZipfSampler",
    "start",
    "substream",
    "zipf_weights",
]
