"""Engine microbenchmarks: raw scheduler throughput, no model code.

Three kernels, each shaped after a hot pattern profiles found in the
experiment grid:

``timer_storm``
    The RPC RTO pattern: a fixed population of in-flight ops, each
    arming a cancellable timer whose "reply" lands long before the RTO
    fires, so the timer is cancelled (the common case — in the quick
    grid roughly a third of all dispatches used to be dead RTO
    timeouts).

``packet_train``
    Same-timestamp fan-in: bursts of callbacks landing on one
    timestamp, the shape a batched packet train hands the engine:
    every pop is decided by the seq tie-break.

``churn_mix``
    Mixed horizons: delays spread over five orders of magnitude with a
    rolling cancellation pattern, the shape of fleet churn (leases,
    retries, and long rejoin timers interleaved): near and far
    deadlines, live and cancelled, share the queue.

Each kernel reports wall-clock, engine dispatches, ``events_per_sec``
(dispatches per wall second) and ``ops_per_sec`` (completed logical
operations); ``benchmarks/ncbench/kernels.py`` runs them as its ``sim``
layer kernels.  Wall clock use is the point: this is the one file in
``src/`` on :data:`repro.check.vocabulary.WALLCLOCK_ALLOWED_PATHS`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator, dispatch_count


def _measure(build: Callable[[], Tuple[Simulator, int]]) -> Dict[str, Any]:
    """Run one kernel and fold the measurements into an entry dict."""
    sim, n_ops = build()
    before = dispatch_count()
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    dispatches = dispatch_count() - before
    return {
        "wall_s": round(wall, 3),
        "sim_events": dispatches,
        "events_per_sec": int(dispatches / wall) if wall > 0 else 0,
        "ops": n_ops,
        "ops_per_sec": int(n_ops / wall) if wall > 0 else 0,
    }


# ---------------------------------------------------------------------------
# timer_storm
# ---------------------------------------------------------------------------

#: In-flight op population and op count for the storm kernel.  The RTO
#: is 100x the reply delay, so every timer is cancelled long before it
#: is due — the steady state the NFS client imposes.
_STORM_OPS = 150_000
_STORM_FANOUT = 1_000
_STORM_REPLY_S = 50e-6
_STORM_RTO_S = 5e-3


def _build_timer_storm() -> Tuple[Simulator, int]:
    sim = Simulator()
    remaining = [_STORM_OPS]

    def op() -> None:
        timer = sim.call_later(_STORM_RTO_S, on_rto)
        sim.schedule(_STORM_REPLY_S, on_reply, timer)

    def on_reply(timer: Any) -> None:
        timer.cancel()
        remaining[0] -= 1
        if remaining[0] >= _STORM_FANOUT:
            op()

    def on_rto() -> None:  # pragma: no cover - replies always win
        raise AssertionError("RTO fired in timer_storm")

    for _ in range(_STORM_FANOUT):
        op()
    return sim, _STORM_OPS


# ---------------------------------------------------------------------------
# packet_train
# ---------------------------------------------------------------------------

_TRAIN_COUNT = 40_000
_TRAIN_FRAMES = 16
_TRAIN_GAP_S = 10e-6


def _build_packet_train() -> Tuple[Simulator, int]:
    sim = Simulator()
    remaining = [_TRAIN_COUNT]
    arrived = [0]

    def train() -> None:
        # All frames of a train land on the same timestamp — the
        # same-time FIFO case the seq tie-break exists for.
        for _ in range(_TRAIN_FRAMES):
            sim.schedule(_TRAIN_GAP_S, frame)

    def frame() -> None:
        arrived[0] += 1
        if arrived[0] == _TRAIN_FRAMES:
            arrived[0] = 0
            remaining[0] -= 1
            if remaining[0] > 0:
                train()

    train()
    return sim, _TRAIN_COUNT


# ---------------------------------------------------------------------------
# churn_mix
# ---------------------------------------------------------------------------

_CHURN_OPS = 120_000
_CHURN_FANOUT = 512
#: Delay ladder spanning short retries to long rejoin timers, five
#: orders of magnitude, so the queue always holds mixed horizons.
_CHURN_DELAYS = (20e-6, 300e-6, 4e-3, 70e-3, 1.1)


def _build_churn_mix() -> Tuple[Simulator, int]:
    sim = Simulator()
    remaining = [_CHURN_OPS]
    step = [0]

    def op() -> None:
        i = step[0] = step[0] + 1
        delay = _CHURN_DELAYS[i % len(_CHURN_DELAYS)]
        if i % 3 == 0:
            # A lease-style timer cancelled two delays later.
            timer = sim.call_later(delay * 2, on_lease_expire)
            sim.schedule(delay, on_done_cancel, timer)
        else:
            sim.schedule(delay, on_done)

    def on_done() -> None:
        remaining[0] -= 1
        if remaining[0] >= _CHURN_FANOUT:
            op()

    def on_done_cancel(timer: Any) -> None:
        timer.cancel()
        on_done()

    def on_lease_expire() -> None:  # pragma: no cover - always cancelled
        raise AssertionError("lease timer fired in churn_mix")

    for _ in range(_CHURN_FANOUT):
        op()
    return sim, _CHURN_OPS


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

ENGINE_KERNELS: Dict[str, Callable[[], Tuple[Simulator, int]]] = {
    "timer_storm": _build_timer_storm,
    "packet_train": _build_packet_train,
    "churn_mix": _build_churn_mix,
}


def run_engine_bench(names: Optional[Sequence[str]] = None
                     ) -> List[Dict[str, Any]]:
    """Run the named kernels (default: all) and measure each."""
    chosen = list(ENGINE_KERNELS) if not names else list(names)
    unknown = [n for n in chosen if n not in ENGINE_KERNELS]
    if unknown:
        raise KeyError(f"unknown engine kernels: {unknown} "
                       f"(choose from {list(ENGINE_KERNELS)})")
    entries: List[Dict[str, Any]] = []
    for name in chosen:
        entry = _measure(ENGINE_KERNELS[name])
        entry["name"] = name
        entries.append(entry)
    return entries
