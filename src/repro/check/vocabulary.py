"""The declared vocabulary ncache-lint checks the tree against.

This module is the single place where the repo's naming scheme and copy
whitelists are written down; the lint rules read it, the docs cite it.

* :data:`SUBSYSTEMS` — legal first components of trace/metric names.
  PR 1 established ``subsystem.verb[.qualifier]`` naming for every
  :class:`~repro.obs.trace.TraceBus` event and every metric declared on a
  :class:`~repro.obs.metrics.MetricsRegistry`; the ``trace-naming`` rule
  makes the scheme machine-checked.
* :data:`COPY_MODEL_PATHS` / :data:`COPY_METADATA_PATHS` — where physical
  materialization of payload bytes is legal.  Everywhere else, data must
  move through :class:`~repro.copymodel.accounting.CopyAccountant` (the
  paper's §3.1 logical-copy discipline), and a deliberate exception needs
  a per-line ``# check: ignore[copy-discipline] -- reason`` annotation.
* :data:`RANDOM_ALLOWED_PATHS` — the only modules that may touch the
  stdlib ``random`` module; everything stochastic takes an injected
  :func:`repro.sim.rng.substream` handle so simulations stay replayable.

Paths are matched as substrings of the POSIX form of the linted file's
path, so the vocabulary works from any checkout location.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Tuple

#: Legal ``subsystem`` prefixes for trace events and metric names.
SUBSYSTEMS: FrozenSet[str] = frozenset({
    "arbiter",    # memory-budget arbiter: tick/move traces, budget gauges
    "bcache",     # file-system buffer cache: writeback counters, events
    "cache",      # the unified eviction kernel (repro.cache): the only
                  # hit/miss/evict/ghost-hit counters, one family each
    "buffer",     # extent data plane: buffer.materialize (a payload was
                  # materialized to bytes at a verification point) and
                  # buffer.extent_slice (substitution served a partial
                  # view of a cached chunk)
    "checksum",   # software checksum accounting
    "copies",     # CopyAccountant counters and per-movement events
    "copy",       # per-copy size distribution
    "cpu",        # generic charged CPU time
    "disk",       # block device / RAID model
    "engine",     # simulator dispatch
    "fleet",      # multi-server cluster: routing, peer cache traffic
    "fs",         # VFS operations
    "http",       # kHTTPd
    "iscsi",      # initiator / target
    "ncache",     # the NCache module and store
    "net",        # network stack send/receive
    "nfs",        # NFS server / client
    "request",    # per-request latency and size histograms
    "rpc",        # SunRPC layer
    "san",        # buffer-lifecycle sanitizer
    "sim",        # simulation bookkeeping
    "tcp",        # transport events
    "udp",        # transport events
    "workload",   # workload generators
})

#: ``subsystem.verb`` or ``subsystem.verb.qualifier`` (lowercase,
#: underscores allowed inside components).
NAME_RE = re.compile(
    r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: TraceBus emit sites whose first argument is an event name.
TRACE_EMIT_METHODS: FrozenSet[str] = frozenset({"emit", "complete"})

#: MetricsRegistry declaration sites (and the CounterSet shim's ``add``)
#: whose first argument is a metric name.
METRIC_DECL_METHODS: FrozenSet[str] = frozenset(
    {"counter", "gauge", "histogram", "add"})

#: Modules that *are* the copy model: materialization here is the model.
COPY_MODEL_PATHS: Tuple[str, ...] = (
    "repro/copymodel/",
    "repro/net/buffer.py",     # Payload substrate: defines physical_copy
    "repro/check/",            # the sanitizer inspects payloads
)

#: Metadata/data-plane paths where physical copies are part of the paper's
#: model and are charged through the owning host's CopyAccountant.
COPY_METADATA_PATHS: Dict[str, str] = {
    "repro/net/stack.py":
        "socket-boundary moves and software checksums are charged via "
        "acct.physical_copy/acct.checksum (§3.1/§3.2)",
    "repro/core/classifier.py":
        "HTTP header scan materializes only real header bytes (§3.5)",
    "repro/http/client.py":
        "client-side response verification, outside the server model",
    "repro/iscsi/target.py":
        "the storage target's data plane; copies charged by its own "
        "accountant (the paper modifies only the pass-through server)",
    "repro/fs/image.py":
        "backing-image byte generation, not a server-side copy",
}

#: The one home of recency/eviction bookkeeping: classes here may build
#: OrderedDict-based recency structures; everywhere else the
#: ``cache-discipline`` rule directs authors to a
#: :class:`~repro.cache.kernel.CacheKernel`.
CACHE_KERNEL_PATHS: Tuple[str, ...] = (
    "repro/cache/",
)

#: Modules allowed to import / call the stdlib ``random`` module.
RANDOM_ALLOWED_PATHS: Tuple[str, ...] = (
    "repro/sim/rng.py",
)

#: Modules allowed to read wall-clock time: none inside the simulation
#: or the experiment runner; the engine microkernels time the *host*,
#: which is their whole point.
WALLCLOCK_ALLOWED_PATHS: Tuple[str, ...] = (
    "repro/perf/enginebench.py",
)

#: Wall-clock reading calls (dotted names as written at the call site).
WALLCLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.now", "datetime.utcnow",
    "datetime.today", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})

#: Blocking primitives that must never run inside an engine callback.
BLOCKING_CALLS: FrozenSet[str] = frozenset({
    "open", "input", "time.sleep", "os.system", "socket.socket",
    "subprocess.run", "subprocess.call", "subprocess.Popen",
    "subprocess.check_output", "urllib.request.urlopen",
})

#: The only modules that may make a blocking host call at all: they run
#: outside the event loop (trace export after the run, the experiment
#: runner, the linter).  Everywhere else a blocking
#: call is flagged wherever it is written, so a helper called from an
#: engine process cannot hide one.
BLOCKING_ALLOWED_PATHS: Tuple[str, ...] = (
    "repro/obs/trace.py",
    "repro/experiments/",
    "repro/check/",
)

#: The budget operation that moves cache bytes: legal only inside the
#: arbiter seam.  Everywhere else, the ``budget-lease`` rule directs
#: authors to a :class:`~repro.cache.arbiter.MemoryArbiter` lease.
BUDGET_OP_METHODS: FrozenSet[str] = frozenset({"resize"})

#: The arbiter seam: the arbiter itself, the kernels it resizes, and the
#: two cache adapters whose ``resize`` wrappers keep index bookkeeping
#: attached (plus their own internal squeeze plumbing).
BUDGET_LEASE_ALLOWED_PATHS: Tuple[str, ...] = (
    "repro/cache/",
    "repro/core/store.py",
    "repro/fs/buffer_cache.py",
)


def path_matches(posix_path: str, patterns: Tuple[str, ...]) -> bool:
    """True if any vocabulary pattern occurs in ``posix_path``."""
    return any(pattern in posix_path for pattern in patterns)
