"""Calendar-queue scheduler: the fast event-queue kernel.

A single ``heapq`` orders every pending occurrence at O(log n) per
push/pop, with n inflated by long-lived timers (RPC deadlines, session
heartbeats) that almost never fire.  This module replaces the single
heap with a *calendar queue* (a bucketed timing wheel): occurrences
are filed into fixed-width time buckets keyed by ``int(when / width)``,
only the *current* bucket is kept sorted, and far-future timers sleep
in their buckets at O(1) push cost until the clock reaches them.

Ordering is **identical** to that heap — this is load-bearing: chaos
replay lines and figure benchmarks must come out as the heap oracle
(tests/heap_queue.py) would order them.  The argument:

* The heap orders by ``(when, seq)`` where ``seq`` is a global push
  counter, i.e. earliest time first, FIFO among equal times.
* ``int(when * inv_width)`` is monotone non-decreasing in ``when``, so
  an occurrence with a smaller ``when`` can never land in a *later*
  bucket, and equal ``when``s always share a bucket.  Draining buckets
  in index order, each sorted by ``(when, seq)``, therefore yields the
  exact heap order — floating-point bucket-boundary truncation can
  shift an entry one bucket early but never reorder it.
* Three side structures keep pushes targeted at the already-open
  current bucket correct: ``_imm`` (a FIFO deque) holds pushes at
  exactly the current time — their push order *is* their seq order, and
  every entry already in ``_snap``/``_extra`` at the same timestamp was
  pushed earlier (the clock had not yet reached that time) and so must
  drain first; ``_extra`` (a small heap) holds pushes with
  ``when > now`` that index into the cursor bucket or earlier — again
  pushed later than any equal-time snapshot entry, so the snapshot wins
  ties.

The class keeps the hot path lean: slotted attributes, tuple-based
entries, no closures.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, List, Optional, Tuple

__all__ = ["CalendarQueue", "DEFAULT_BUCKET_MS"]

_INF = float("inf")

#: Bucket width in virtual milliseconds.  Swept empirically on the
#: fig8-queue and read-heavy drivers: widths near the event spacing
#: (0.05-0.1 ms) pay a fresh-bucket dict/heap operation for almost
#: every push, while 0.5 ms amortizes bucket bookkeeping over tens of
#: entries per bucket (nearly-sorted, so the snapshot sort is cheap)
#: and still parks multi-second timers thousands of buckets away.
DEFAULT_BUCKET_MS = 0.5


class CalendarQueue:
    """Bucketed pending-event store with heap-identical drain order.

    ``env`` owns the clock (``env._now``); the queue reads it on push
    (to classify same-instant occurrences) and writes it on drain.
    """

    __slots__ = ("env", "inv_width", "_seq", "_imm", "_wheel", "_occ",
                 "_extra", "_snap", "_si", "_cursor")

    def __init__(self, env: Any, bucket_ms: float = DEFAULT_BUCKET_MS):
        self.env = env
        self.inv_width = 1.0 / bucket_ms
        self._seq = 0
        #: pushes at exactly the current instant; drains FIFO after any
        #: equal-time entries already in the snapshot or extra heap.
        self._imm: deque = deque()
        #: future buckets: absolute bucket index -> unsorted entry list.
        self._wheel: dict = {}
        #: min-heap of occupied bucket indices (each exactly once).
        self._occ: List[int] = []
        #: late pushes indexing into the cursor bucket (or earlier).
        self._extra: List[Tuple[float, int, Any]] = []
        #: sorted snapshot of the bucket currently being drained.
        self._snap: List[Tuple[float, int, Any]] = []
        self._si = 0
        self._cursor = int(env._now * self.inv_width)

    # -- producing ---------------------------------------------------------

    def push(self, when: float, item: Any) -> None:
        """File ``item`` to occur at virtual time ``when`` (>= now)."""
        if when == self.env._now:
            self._imm.append(item)
            return
        self._seq = seq = self._seq + 1
        idx = int(when * self.inv_width)
        if idx <= self._cursor:
            heappush(self._extra, (when, seq, item))
            return
        bucket = self._wheel.get(idx)
        if bucket is None:
            self._wheel[idx] = [(when, seq, item)]
            heappush(self._occ, idx)
        else:
            bucket.append((when, seq, item))

    # -- bucket cursor -----------------------------------------------------

    def _advance(self) -> bool:
        """Open the next occupied bucket as the drain snapshot.

        Only called with ``_imm``/``_extra`` empty and the snapshot
        exhausted.  Returns False when the queue is fully empty.
        """
        if not self._occ:
            return False
        idx = heappop(self._occ)
        bucket = self._wheel.pop(idx)
        bucket.sort()
        self._snap = bucket
        self._si = 0
        self._cursor = idx
        return True

    # -- inspection --------------------------------------------------------

    def empty(self) -> bool:
        return (not self._imm and not self._extra and not self._occ
                and self._si >= len(self._snap))

    def peek(self) -> Optional[float]:
        """Time of the next occurrence, or None if the queue is empty."""
        if self._imm:
            return self.env._now
        t = self._snap[self._si][0] if self._si < len(self._snap) else _INF
        if self._extra and self._extra[0][0] < t:
            t = self._extra[0][0]
        if t != _INF:
            return t
        if self._occ:
            return min(self._wheel[self._occ[0]])[0]
        return None

    # -- consuming ---------------------------------------------------------

    def pop_one(self) -> Any:
        """Pop the single next item, advancing ``env._now`` to its time.

        Returns None when the queue is empty.
        """
        env = self.env
        while True:
            snap = self._snap
            si = self._si
            t1 = snap[si][0] if si < len(snap) else _INF
            t2 = self._extra[0][0] if self._extra else _INF
            if self._imm:
                now = env._now
                if t1 == now:
                    self._si = si + 1
                    return snap[si][2]
                if t2 == now:
                    return heappop(self._extra)[2]
                return self._imm.popleft()
            if t1 <= t2:
                if t1 == _INF:
                    if not self._advance():
                        return None
                    continue
                self._si = si + 1
                entry = snap[si]
            else:
                entry = heappop(self._extra)
            env._now = entry[0]
            return entry[2]

    def drain(self, deadline: float, target: Any) -> int:
        """Process occurrences in heap order until a stop condition.

        Returns 0 when the queue drained empty, 1 when the next
        occurrence lies beyond ``deadline``, 2 when ``target`` (an
        Event, or None) has been processed.  Advances ``env._now`` and
        settles ``env.events_processed`` on exit even if a handler
        raises.
        """
        env = self.env
        imm = self._imm
        extra = self._extra
        count = 0
        try:
            while True:
                if target is not None and target.callbacks is None:
                    return 2
                snap = self._snap
                si = self._si
                t1 = snap[si][0] if si < len(snap) else _INF
                t2 = extra[0][0] if extra else _INF
                if imm:
                    # Everything here happens at env._now; equal-time
                    # snapshot/extra entries were pushed earlier and win.
                    now = env._now
                    if t1 == now:
                        self._si = si + 1
                        item = snap[si][2]
                    elif t2 == now:
                        item = heappop(extra)[2]
                    else:
                        item = imm.popleft()
                    count += 1
                    item._process()
                    continue
                if t1 <= t2:
                    if t1 == _INF:
                        if not self._advance():
                            return 0
                        continue
                    if t1 > deadline:
                        return 1
                    self._si = si + 1
                    entry = snap[si]
                else:
                    if t2 > deadline:
                        return 1
                    entry = heappop(extra)
                env._now = entry[0]
                count += 1
                entry[2]._process()
        finally:
            env.events_processed += count
