"""Reference oracle for the calendar-queue event kernel.

:class:`HeapQueue` is the plainest correct event queue: one ``heapq``
ordered by ``(when, seq)``, where ``seq`` is a global push counter —
earliest time first, FIFO among equal times. It implements the
interface :class:`repro.sim.Environment` drives
(``push``/``pop_one``/``peek``/``drain``), so a test can build every
environment on it by patching ``repro.sim.environment.CalendarQueue``
and compare the whole run against the calendar queue's.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

__all__ = ["HeapQueue", "use_heap_queue"]


class HeapQueue:
    """Pending-event store ordered by ``(when, push order)``."""

    def __init__(self, env: Any):
        self.env = env
        self._seq = 0
        self._heap: List[Tuple[float, int, Any]] = []

    def push(self, when: float, item: Any) -> None:
        self._seq += 1
        heappush(self._heap, (when, self._seq, item))

    def peek(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop_one(self) -> Any:
        """Pop the next item, advancing ``env._now``; None when empty."""
        if not self._heap:
            return None
        when, _seq, item = heappop(self._heap)
        self.env._now = when
        return item

    def drain(self, deadline: float, target: Any) -> int:
        """Process items in order; same stop codes as the calendar queue:
        0 drained empty, 1 next item past ``deadline``, 2 ``target``
        processed."""
        env = self.env
        heap = self._heap
        count = 0
        try:
            while True:
                if target is not None and target.callbacks is None:
                    return 2
                if not heap:
                    return 0
                if heap[0][0] > deadline:
                    return 1
                when, _seq, item = heappop(heap)
                env._now = when
                count += 1
                item._process()
        finally:
            env.events_processed += count


def use_heap_queue(monkeypatch) -> None:
    """Make every Environment built from here on run on :class:`HeapQueue`."""
    monkeypatch.setattr("repro.sim.environment.CalendarQueue", HeapQueue)
