"""Host-speed calibration: two fixed pure-Python loops timed beside the work.

Host time on a shared box is not a stable unit.  The machine's speed
wanders by tens of percent on a 0.1 s scale and shifts for minutes at a
time (``process_time`` moves with it: it is the core slowing down, not
preemption), and it does not slow all code alike: interpreter-bound code
and cache-hungry code are hit differently at different moments.  So cost
is expressed in *calibration units* (cu): the measured time divided by
the time two fixed loops take, right then —

* loop A, interpreter-bound: a generator resumed in a ``for`` loop, a
  method call, a dict store, a list append, all on a working set of a
  few KB;
* loop B, memory-bound: a miniature event loop — a binary heap of a few
  thousand suspended generators, each resumption touching an object, its
  peer and a 64 K-entry dict at a wandering key;

— combined as the geometric mean of their per-iteration times.  Either
loop alone tracked the simulator's slow-downs poorly on some workload
(run-to-run spread 6-10%); the pair tracks them on all five (2-4%).
Passes are short (3 ms for both loops) because they are interleaved with
the measured work every ~15 ms: the yardstick has to be read *during*
the interval it divides, not beside it.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Iterator, List

#: Loop A iterations and loop B events per calibration pass.
A_ITERS = 6_000
B_EVENTS = 1_500

#: One cu in seconds on the box the benchmark was defined on, at its
#: fast end.  Only ``setup_s`` uses it, to turn calibration units back
#: into "seconds at reference speed"; changing it rescales ``setup_s``
#: and nothing else.
CU_REF_S = 0.42e-6


class _Box:
    __slots__ = ("n", "d", "l")

    def __init__(self) -> None:
        self.n = 0
        self.d: dict = {}
        self.l: list = []

    def step(self, i: int) -> int:
        self.n += i & 3
        self.d[i & 255] = self.n
        self.l.append(i)
        if len(self.l) > 64:
            self.l.clear()
        return self.n


def _steps(box: _Box, n: int) -> Iterator[int]:
    for i in range(n):
        yield box.step(i)


def _loop_a() -> float:
    """Seconds per iteration of loop A."""
    box = _Box()
    acc = 0
    t0 = time.perf_counter()
    for value in _steps(box, A_ITERS):
        acc += value
    return (time.perf_counter() - t0) / A_ITERS


class _Flow:
    __slots__ = ("ident", "count", "last", "peer")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.count = 0
        self.last = 0.0
        self.peer: Any = None


def _flow_process(flow: _Flow, table: dict) -> Iterator[float]:
    key = flow.ident
    while True:
        now = yield 1.0 + (key & 7)
        key = (key * 1103515245 + 12345) & 0xFFFF
        flow.count += 1
        flow.last = now
        table[key] = flow.count
        flow.peer.last = now


class Yardstick:
    """The two loops; :meth:`read` times one pass of each.

    Loop B keeps its heap of processes between passes (building it takes
    longer than a pass), so a run creates one yardstick and hands it to
    everything that measures.
    """

    FLOWS = 2048

    def __init__(self) -> None:
        flows = [_Flow(i) for i in range(self.FLOWS)]
        for i, flow in enumerate(flows):
            flow.peer = flows[(i * 7 + 3) % self.FLOWS]
        self._table: dict = {}
        self._heap: List[tuple] = []
        self._seq = 0
        for flow in flows:
            process = _flow_process(flow, self._table)
            next(process)
            self._seq += 1
            heapq.heappush(self._heap,
                           (float(flow.ident & 15), self._seq, process))

    def _loop_b(self) -> float:
        """Seconds per event over ``B_EVENTS`` more events."""
        heap = self._heap
        push, pop = heapq.heappush, heapq.heappop
        seq = self._seq
        t0 = time.perf_counter()
        for _ in range(B_EVENTS):
            when, _seq, process = pop(heap)
            delay = process.send(when)
            seq += 1
            push(heap, (when + delay, seq, process))
        self._seq = seq
        return (time.perf_counter() - t0) / B_EVENTS

    def read(self, passes: int = 1) -> float:
        """One cu in seconds, now: the mean over ``passes`` of the
        geometric mean of loop A's and loop B's per-iteration time."""
        return sum(math.sqrt(_loop_a() * self._loop_b())
                   for _ in range(passes)) / passes
