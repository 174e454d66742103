"""A fixed reference loop that gauges how fast the machine runs right now.

The benchmark's machines are shared: for minutes at a time the same
episode can take a third longer because of other tenants, which a median
inside one run cannot remove. ``run.py`` therefore times this loop
between slices of every measured episode and scales the episode's wall
rate by ``(reference time ÷ REFERENCE_S) ** SENSITIVITY`` (and divides
the run's cold set-up time by the median of those factors). The loop is
pure Python with the shape of the simulator's hot path (a heap of timed
events, generator processes, small slotted messages, string keys, dict
and list churn) but none of its code, so a change to ``src/`` moves the
scaled rate and a slow spell of the machine does not.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

#: Nominal duration of :func:`reference_loop` on a quiet 2-vCPU Xeon VM
#: (CPython 3.11); scaled rates are ops per wall second at that speed.
REFERENCE_S = 0.016

#: The loop suffers more from other tenants than the simulator does:
#: over 40 runs of the four workloads on that VM, log(simulator wall
#: rate) fell by 0.42-0.66 times log(reference time) (least squares per
#: workload). Scaling by slowness ** 0.6 cut the quartile spread of
#: ops_per_wall_s over ten seeds from 0.14-0.33 to 0.05-0.07.
SENSITIVITY = 0.6

PROCESSES = 64
STEPS = 8000


class _Msg:
    __slots__ = ("src", "dst", "body", "size")

    def __init__(self, src, dst, body, size):
        self.src = src
        self.dst = dst
        self.body = body
        self.size = size


def _loop() -> int:
    rng = random.Random(7)
    store = {}
    inbox = {i: [] for i in range(PROCESSES)}

    def process(me):
        k = 0
        while True:
            k += 1
            key = f"k{me}-{k & 255}"
            msg = _Msg(me, (me * 7 + k) % PROCESSES, (key, k, [k, me]),
                       len(key))
            store[key] = msg
            inbox[msg.dst].append(msg)
            if len(inbox[me]) > 8:
                inbox[me] = inbox[me][4:]
            yield rng.expovariate(1.0)

    procs = [process(i) for i in range(PROCESSES)]
    heap = [(next(p), i, i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    seq = PROCESSES
    for _ in range(STEPS):
        now, _seq, i = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + procs[i].send(None), seq, i))
    return len(store)


def reference_loop() -> float:
    """Seconds one run of the reference loop takes (garbage collector off,
    so the simulator's heap does not change the loop's cost)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Times the reference loop at most every ``every_s`` wall seconds.

    Called between slices of an episode; the episode's clock excludes
    the time spent here.
    """

    def __init__(self, every_s: float = 0.2):
        self.every_s = every_s
        self.times = []
        self._last = perf_counter()

    def __call__(self) -> None:
        if perf_counter() - self._last >= self.every_s:
            self.times.append(reference_loop())
            self._last = perf_counter()

    def slowness(self) -> float:
        """How much slower than quiet the simulator is expected to run:
        (median reference time ÷ REFERENCE_S) ** SENSITIVITY."""
        if not self.times:
            self.times.append(reference_loop())
        return (statistics.median(self.times) / REFERENCE_S) ** SENSITIVITY
