"""The metrics view: counters and bucketed histograms, pulled on demand.

Nothing reports into this module: each counted fact lives once, in the
component that owns it, and a :class:`MetricsRegistry` is a read-only
snapshot of those counts taken when someone asks, so it cannot drift
from them. Every metric is keyed ``(name, node)``; the empty node
labels process-wide metrics (client-side counters).

Histograms use fixed millisecond bucket bounds rather than adaptive
ones: adaptive bounds would depend on observation order and make the
``mntr`` output fragile across refactors.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["MetricsRegistry", "BUCKET_BOUNDS_MS", "network_counters"]

#: upper bounds (ms) of the histogram buckets; the last bucket is open.
BUCKET_BOUNDS_MS: Tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
    512.0, 1024.0, 2048.0)


def network_counters(net) -> Iterator[Tuple[str, str, float]]:
    """Every ``(name, node, value)`` count the network and the objects
    behind its registered inboxes keep (those with a ``counters()``)."""
    for source in [net] + net.endpoints():
        counters = getattr(source, "counters", None)
        if counters is not None:
            yield from counters()


class MetricsRegistry:
    """A read-only snapshot of counters and latency histograms."""

    __slots__ = ("counters", "histograms")

    def __init__(self, counts: Iterable[Tuple[str, str, float]],
                 samples_ms: Optional[
                     Dict[Tuple[str, str], List[float]]] = None):
        totals: Dict[Tuple[str, str], float] = {}
        for name, node, value in counts:
            key = (name, node)
            totals[key] = totals.get(key, 0.0) + value
        #: (name, node) -> total; facts never counted are absent.
        self.counters: Dict[Tuple[str, str], float] = {
            key: value for key, value in sorted(totals.items()) if value}
        #: (name, node) -> per-bucket counts (len(BUCKET_BOUNDS_MS) + 1).
        self.histograms: Dict[Tuple[str, str], List[int]] = {}
        for key, samples in sorted((samples_ms or {}).items()):
            if samples:
                buckets = [0] * (len(BUCKET_BOUNDS_MS) + 1)
                for value in samples:
                    buckets[bisect_right(BUCKET_BOUNDS_MS, value)] += 1
                self.histograms[key] = buckets

    def total(self, name: str) -> float:
        """Sum of a counter across every node label."""
        return sum(v for (n, _node), v in self.counters.items() if n == name)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic (sorted) dump of everything in the view."""
        return {
            "counters": {f"{name}{{{node}}}": value
                         for (name, node), value in self.counters.items()},
            "histograms": {f"{name}{{{node}}}": list(counts)
                           for (name, node), counts
                           in self.histograms.items()},
        }

    def mntr_lines(self, node: str) -> List[str]:
        """``mntr``-style ``key\\tvalue`` lines for one node's counters."""
        return [f"{name}\t{value:g}"
                for (name, metric_node), value in self.counters.items()
                if metric_node == node]
