"""repro — reproduction of "Network-Centric Buffer Cache Organization"
(Peng, Sharma, Chiueh; ICDCS 2005).

A discrete-event, byte-accurate simulation of the paper's entire testbed
— NFS-over-iSCSI and kHTTPd pass-through servers in three configurations
(original / ideal zero-copy baseline / NCache) — plus the NCache module
itself: logical copying, the LBN+FHO network-centric cache, packet
substitution and FHO→LBN remapping.

Typical entry points:

>>> from repro.servers import TestbedSpec, ServerMode
>>> from repro.servers import NfsTestbed, TestbedConfig
>>> from repro.workloads import AllHitReadWorkload
>>> from repro import experiments   # one module per paper table/figure
>>> from repro import obs           # tracing + metrics registry

See README.md for the tour, DESIGN.md for the architecture and
EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "check",
    "copymodel",
    "core",
    "experiments",
    "fs",
    "http",
    "iscsi",
    "net",
    "nfs",
    "obs",
    "rpc",
    "servers",
    "sim",
    "workloads",
]
