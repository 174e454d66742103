"""Causal request traces over the simulation clock.

A trace follows one client request by its ``(client_node, xid)``
identity — the pair the existing :class:`~repro.zk.txn.RequestMeta`
already carries end-to-end — so tracing adds **no wire fields**: any
new field on the client/server envelopes would change their
``estimate_size`` and shift every simulated latency (see the warning in
``zk/txn.py``). Correlation happens in an in-process side table instead.

A trace is an ordered list of **milestone marks** ``(phase, t, node,
epoch, zxid)`` appended in event-execution order. Because the simulator
executes events in nondecreasing time order, mark timestamps are
monotone by construction, and the per-phase latencies — the deltas
between consecutive milestones — telescope to *exactly* the end-to-end
latency (``recv - send``). That is the determinism-plus-reconciliation
argument in DESIGN.md §13.

Write-path milestones::

    send -> ingress -> propose -> deliver -> reply -> recv
    |ingress |broadcast|  quorum  |  apply  | reply |

Read-path milestones: ``send -> ingress -> reply -> recv`` (phases
ingress / execute / reply). Side activity that does not sit on the
request's critical path — watch fan-out, lease-gate waits — is recorded
as **aux spans** attached to the owning trace, exempt from phase tiling.

Trace ids are assigned in ``begin()`` order from a plain counter; with
identical seeds the event order is identical, so two runs dump
byte-identical JSONL files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry, network_counters

__all__ = ["ObsConfig", "Observability", "Tracer", "Trace",
           "M_SEND", "M_INGRESS", "M_PROPOSE", "M_DELIVER", "M_REPLY",
           "M_RECV"]

# milestone names (the later mark names the phase that ends at it).
M_SEND = "send"
M_INGRESS = "ingress"
M_PROPOSE = "propose"
M_DELIVER = "deliver"
M_REPLY = "reply"
M_RECV = "recv"


@dataclass
class ObsConfig:
    """Turns the observability plane on (attach to ``ZkConfig.obs`` /
    ``DsConfig.obs``).

    ``runtime`` is populated at install time with the shared
    :class:`Observability` instance so drivers that handed a config into
    a workload can retrieve the tracer afterwards without changing any
    workload return type.
    """

    runtime: Optional["Observability"] = field(
        default=None, repr=False, compare=False)


class Trace:
    """One request's milestone marks and aux spans."""

    __slots__ = ("trace_id", "client", "xid", "op", "marks", "aux",
                 "retried", "done", "ok")

    def __init__(self, trace_id: int, client: str, xid: int, op: str):
        self.trace_id = trace_id
        self.client = client
        self.xid = xid
        self.op = op
        #: [(phase, t, node, epoch, zxid)], appended in event order.
        self.marks: List[Tuple[str, float, str, int, int]] = []
        #: [(name, t0, t1, node, detail)] off-critical-path activity.
        self.aux: List[Tuple[str, float, float, str, str]] = []
        self.retried = False
        self.done = False
        self.ok: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "client": self.client,
            "xid": self.xid,
            "op": self.op,
            "retried": self.retried,
            "done": self.done,
            "ok": self.ok,
            "marks": [list(m) for m in self.marks],
            "aux": [list(a) for a in self.aux],
        }


class Tracer:
    """The per-run side table of active and finished traces."""

    def __init__(self) -> None:
        self._next_id = 0
        self.active: Dict[Tuple[str, int], Trace] = {}
        self.finished: List[Trace] = []

    # -- client side -------------------------------------------------------

    def begin(self, client: str, xid: int, op: str, now: float) -> None:
        self._next_id += 1
        trace = Trace(self._next_id, client, xid, op)
        trace.marks.append((M_SEND, now, client, 0, 0))
        self.active[(client, xid)] = trace

    def retry(self, client: str, xid: int, now: float) -> None:
        trace = self.active.get((client, xid))
        if trace is not None:
            trace.retried = True
            trace.marks.append((M_SEND, now, client, 0, 0))

    def finish(self, client: str, xid: int, now: float, ok: bool) -> None:
        trace = self.active.pop((client, xid), None)
        if trace is not None:
            trace.marks.append((M_RECV, now, client, 0, 0))
            trace.done = True
            trace.ok = ok
            self.finished.append(trace)

    # -- server side -------------------------------------------------------

    def mark(self, client: str, xid: int, phase: str, now: float,
             node: str, epoch: int = 0, zxid: int = 0) -> None:
        trace = self.active.get((client, xid))
        if trace is not None:
            trace.marks.append((phase, now, node, epoch, zxid))

    def aux(self, client: str, xid: int, name: str, t0: float, t1: float,
            node: str, detail: str = "") -> None:
        trace = self.active.get((client, xid))
        if trace is not None:
            trace.aux.append((name, t0, t1, node, detail))

    # -- output ------------------------------------------------------------

    def traces(self) -> List[Trace]:
        """Every trace (finished first, then abandoned), by trace id."""
        abandoned = sorted(self.active.values(), key=lambda t: t.trace_id)
        return sorted(self.finished + abandoned, key=lambda t: t.trace_id)

    def dump_jsonl(self) -> str:
        """Deterministic JSONL: one trace per line, ordered by trace id."""
        lines = [json.dumps(trace.to_dict(), sort_keys=True,
                            separators=(",", ":"))
                 for trace in self.traces()]
        return "\n".join(lines) + ("\n" if lines else "")


class Observability:
    """The shared per-run observability plane (lives on ``env.obs``).

    Components reach it with one attribute read (``env.obs``), guarded
    by a ``None`` test, only to stamp tracing milestones; when no config
    asked for it the attribute stays ``None`` and every milestone costs
    a single comparison. Counts are not reported here at all: they live
    in their owners, and :attr:`metrics` reads them on demand.
    """

    __slots__ = ("net", "tracer")

    def __init__(self, net):
        self.net = net
        self.tracer = Tracer()

    @property
    def metrics(self) -> MetricsRegistry:
        """Every count in the run, plus client retries (one extra send
        mark each) and latencies (first send to reply) from the traces."""
        traces = self.tracer.traces()
        sends = sum(mark[0] == M_SEND for t in traces for mark in t.marks)
        retries = [("client.retries", "", sends - len(traces))]
        latencies = [t.marks[-1][1] - t.marks[0][1] for t in traces if t.ok]
        return MetricsRegistry(chain(network_counters(self.net), retries),
                               {("client.latency_ms", ""): latencies})

    @staticmethod
    def install(env, config: ObsConfig, net) -> "Observability":
        """Idempotently attach an observability plane to ``env``.

        The first server constructed with an obs-bearing config creates
        the plane; later servers (and other configs pointing at the same
        env) share it. The config's ``runtime`` back-reference lets the
        driver that built the config fetch the tracer after the run.
        """
        obs = env.obs
        if obs is None:
            obs = Observability(net)
            env.obs = obs
        config.runtime = obs
        return obs
