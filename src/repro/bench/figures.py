"""One generator per table/figure of the paper's evaluation (§6).

Each ``figure*()`` function sweeps the paper's x-axis (number of
clients) over the relevant systems and returns a :class:`FigureResult`
whose rows mirror the published series. ``print_result`` renders the
same rows/series the paper plots. Full 6-point sweeps are expensive in
a discrete-event simulator; set ``REPRO_FULL=1`` for the paper's exact
client counts, otherwise a 4-point sweep is used.

Two further entries measure this repository's read-path additions in
the same form: :func:`read_scaling` (local reads plus observers against
leader-only reads) and :func:`zipf_hot` (lease-protected client caching
under skewed open-loop reads).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .openloop import Workload, run_openloop_workload
from .workload import (WorkloadResult, run_barrier_workload,
                       run_counter_workload, run_election_workload,
                       run_queue_with_regular_clients,
                       run_queue_workload, run_read_heavy_workload,
                       run_regular_op_latency)

__all__ = [
    "FigureResult", "client_counts", "print_result",
    "table1", "table2",
    "figure6", "figure8", "figure10", "figure12", "figure13",
    "overhead_regular_ops", "read_scaling", "zipf_hot",
]

FULL_SWEEP = os.environ.get("REPRO_FULL", "") not in ("", "0")


def client_counts(minimum: int = 1) -> Tuple[int, ...]:
    """The figure x-axis: the paper's counts, or a reduced sweep."""
    counts = (1, 10, 20, 30, 40, 50) if FULL_SWEEP else (1, 10, 30, 50)
    return tuple(max(minimum, c) for c in counts if c >= minimum or c == 1)


@dataclass
class FigureResult:
    """A reproduced table/figure: named series of workload results."""

    name: str
    description: str
    series: Dict[str, List[WorkloadResult]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def factor(self, fast: str, slow: str, clients: int) -> float:
        """Throughput ratio fast/slow at a given client count."""
        def at(system):
            for result in self.series[system]:
                if result.clients == clients:
                    return result
            raise KeyError(f"no {system} point at {clients} clients")
        return at(fast).throughput_ops / max(1e-9, at(slow).throughput_ops)


def print_result(figure: FigureResult) -> str:
    lines = [f"== {figure.name}: {figure.description} =="]
    for system, results in figure.series.items():
        lines.append(f"-- {system} --")
        for result in results:
            lines.append("  " + result.row())
            for key, value in result.extra.items():
                lines.append(f"      {key} = {value:.3f}")
    for note in figure.notes:
        lines.append(f"  note: {note}")
    text = "\n".join(lines)
    print(text)
    return text


def _sweep(systems: Sequence[str], counts: Sequence[int],
           runner: Callable[..., WorkloadResult],
           **kwargs) -> Dict[str, List[WorkloadResult]]:
    return {
        system: [runner(system, n, **kwargs) for n in counts]
        for system in systems
    }


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

#: Table 1 rows: (system, data model, sync primitive, wait-free).
TABLE1_ROWS = [
    ("Boxwood", "Key-Value store", "Locks", "No"),
    ("Chubby", "(Small) File system", "Locks", "No"),
    ("Sinfonia", "Key-Value store", "Microtransactions", "Yes"),
    ("DepSpace", "Tuple space", "cas/replace ops", "Yes"),
    ("ZooKeeper", "Hierar. of data nodes", "Sequencers", "Yes"),
    ("etcd", "Hierar. of data nodes", "Sequen./Atomic ops", "Yes"),
    ("LogCabin", "Hierar. of data nodes", "Conditions", "Yes"),
]

#: Which Table 1 rows this repository actually implements, and where.
TABLE1_IMPLEMENTED = {
    "ZooKeeper": "repro.zk (DataTree sequential nodes = sequencers; wait-free)",
    "DepSpace": "repro.depspace (cas/replace on the tuple space; wait-free)",
}


def table1() -> List[Tuple[str, str, str, str]]:
    """Table 1: coordination services and their characteristics."""
    return list(TABLE1_ROWS)


def print_table1() -> str:
    lines = ["== Table 1: coordination services and their characteristics =="]
    header = f"{'System':<10} {'Data model':<22} {'Sync primitive':<20} Wait-free"
    lines.append(header)
    for system, model, primitive, wait_free in table1():
        line = f"{system:<10} {model:<22} {primitive:<20} {wait_free}"
        if system in TABLE1_IMPLEMENTED:
            line += f"   [implemented: {TABLE1_IMPLEMENTED[system]}]"
        lines.append(line)
    text = "\n".join(lines)
    print(text)
    return text


#: Table 2 rows: (abstract method, ZooKeeper mapping, DepSpace mapping).
TABLE2_ROWS = [
    ("create(o)", "create(o)", "out(o)"),
    ("delete(o)", "delete(o, ANY_VERSION)", "inp(o)"),
    ("read(o)", "getData(o)", "rdp(o)"),
    ("update(o, c)", "setData(o, c, ANY_VERSION)", "replace(o, ANY, nc)"),
    ("cas(o, cc, nc)", "setData(o, nc, version-of-last-read)",
     "replace(o, cc, nc)"),
    ("subObjects(o)", "getChildren(o) + getData(child)*",
     "rdAll(<o, SUB_ANY>)"),
    ("block(o)", "exists-watch, unblock on creation event", "rd(o)"),
    ("monitor(x, o)", "create o as ephemeral node",
     "out o as a lease tuple"),
]


def table2() -> List[Tuple[str, str, str]]:
    """Table 2: the abstract API and its per-service realization."""
    return list(TABLE2_ROWS)


def print_table2() -> str:
    lines = ["== Table 2: coordination-service methods and equivalences =="]
    lines.append(f"{'Method':<16} {'ZooKeeper':<40} DepSpace")
    for method, zk, ds in table2():
        lines.append(f"{method:<16} {zk:<40} {ds}")
    lines.append("  (live mappings: repro.recipes.zk_adapter / ds_adapter)")
    text = "\n".join(lines)
    print(text)
    return text


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

_ALL = ("zk", "ezk", "ds", "eds")
_EXT = ("ezk", "eds")


def figure6(counts: Optional[Sequence[int]] = None,
            measure_ms: float = 400.0) -> FigureResult:
    """Figure 6: shared-counter throughput and latency vs #clients."""
    counts = counts or client_counts()
    figure = FigureResult(
        "Figure 6", "shared counter: throughput (ops/s) and latency (ms)")
    figure.series = _sweep(_ALL, counts, run_counter_workload,
                           measure_ms=measure_ms)
    ref = max(counts)
    figure.notes.append(
        f"EZK/ZK throughput factor at {ref} clients: "
        f"{figure.factor('ezk', 'zk', ref):.1f}x (paper: ~20x)")
    figure.notes.append(
        f"EDS/DS throughput factor at {ref} clients: "
        f"{figure.factor('eds', 'ds', ref):.1f}x")
    return figure


def figure8(counts: Optional[Sequence[int]] = None,
            measure_ms: float = 400.0) -> FigureResult:
    """Figure 8: queue throughput and client data (KB/op) vs #clients."""
    counts = counts or client_counts()
    figure = FigureResult(
        "Figure 8",
        "distributed queue: throughput (elements/s) and client KB per element")
    figure.series = _sweep(_ALL, counts, run_queue_workload,
                           measure_ms=measure_ms)
    ref = max(counts)
    figure.notes.append(
        f"EZK/ZK factor at {ref} clients: "
        f"{figure.factor('ezk', 'zk', ref):.1f}x (paper: 17x)")
    figure.notes.append(
        f"EDS/DS factor at {ref} clients: "
        f"{figure.factor('eds', 'ds', ref):.1f}x (paper: 24x)")
    return figure


def figure10(counts: Optional[Sequence[int]] = None,
             measure_ms: float = 400.0) -> FigureResult:
    """Figure 10: barrier latency and client data (KB/op) vs #clients."""
    counts = counts or client_counts(minimum=2)
    figure = FigureResult(
        "Figure 10",
        "distributed barrier: enter latency (ms) and client KB per enter")
    figure.series = _sweep(_ALL, counts, run_barrier_workload,
                           measure_ms=measure_ms)
    return figure


def figure12(counts: Optional[Sequence[int]] = None,
             measure_ms: float = 400.0) -> FigureResult:
    """Figure 12: election throughput and signaling latency vs #clients."""
    counts = counts or client_counts(minimum=2)
    figure = FigureResult(
        "Figure 12",
        "leader election: throughput (elections/s) and signaling latency (ms)")
    figure.series = _sweep(_ALL, counts, run_election_workload,
                           measure_ms=measure_ms)

    def signaling(system, clients):
        for result in figure.series[system]:
            if result.clients == clients:
                return result.extra.get("signaling_latency_ms", float("nan"))
        return float("nan")

    ref = max(counts)
    zk_gain = 1.0 - signaling("ezk", ref) / signaling("zk", ref)
    ds_gain = 1.0 - signaling("eds", ref) / signaling("ds", ref)
    figure.notes.append(
        f"EZK signaling latency {zk_gain:.0%} lower than ZooKeeper "
        "(paper: ~25% lower)")
    figure.notes.append(
        f"EDS signaling latency {ds_gain:.0%} lower than DepSpace "
        "(paper: ~45% lower)")
    return figure


def figure13(queue_counts: Optional[Sequence[int]] = None,
             measure_ms: float = 400.0) -> FigureResult:
    """Figure 13: regular read/write latency vs queue throughput."""
    queue_counts = queue_counts or ((1, 10, 20, 30, 40, 50) if FULL_SWEEP
                                    else (1, 10, 30, 50))
    figure = FigureResult(
        "Figure 13",
        "impact of the queue extension on 30 regular clients "
        "(15 readers + 15 writers, 256-byte objects)")
    figure.series = _sweep(_EXT, queue_counts,
                           run_queue_with_regular_clients,
                           measure_ms=measure_ms)
    return figure


def overhead_regular_ops(measure_ms: float = 400.0) -> FigureResult:
    """§6.2: latency of plain reads/writes, extensible vs. base system."""
    figure = FigureResult(
        "§6.2 overhead",
        "regular-operation latency with no extensions registered")
    figure.series = _sweep(_ALL, (10,), run_regular_op_latency,
                           measure_ms=measure_ms)

    def mean_of(system, key):
        return figure.series[system][0].extra[key]

    for base, ext in (("zk", "ezk"), ("ds", "eds")):
        for key in ("regular_read_ms", "regular_write_ms"):
            overhead = mean_of(ext, key) / mean_of(base, key) - 1.0
            figure.notes.append(
                f"{ext} vs {base} {key.replace('regular_', '').replace('_ms', '')}"
                f" overhead: {overhead:+.2%} (paper: < 0.4%)")
    return figure


# ---------------------------------------------------------------------------
# Read path (beyond the paper)
# ---------------------------------------------------------------------------

READ_CLIENTS = 32
READ_OBSERVERS = 2


def read_scaling() -> FigureResult:
    """90/10 read-heavy load: leader-only reads vs local reads + observers.

    The leader-only cell pins every client to the bootstrap leader; the
    scaled cell serves session-consistent reads at the replica each
    client is connected to, with two observers widening read capacity.
    """
    figure = FigureResult(
        "Read scaling",
        f"90/10 read-heavy throughput, {READ_CLIENTS} clients: leader-only vs "
        f"local reads + {READ_OBSERVERS} observers")
    scaled = f"local_reads+{READ_OBSERVERS}obs"
    for kind in ("zk", "ezk"):
        figure.series[f"{kind} leader-only"] = [run_read_heavy_workload(
            kind, READ_CLIENTS, measure_ms=500.0, pin_leader=True)]
        figure.series[f"{kind} {scaled}"] = [run_read_heavy_workload(
            kind, READ_CLIENTS, measure_ms=500.0, local_reads=True,
            n_observers=READ_OBSERVERS)]
        factor = figure.factor(f"{kind} {scaled}", f"{kind} leader-only",
                               READ_CLIENTS)
        figure.notes.append(f"{kind} read scaling: {factor:.2f}x")
    return figure


#: (modeled clients, ops per client-second, sessions, in-flight per
#: session). Saturated offers far past the read ceiling of three
#: replicas with local reads, through few wide sessions so each one
#: rereads its hot keys; light load leaves the read p50 to the
#: per-request path.
ZIPF_HOT_LOADS = {"saturated": (550_000, 1.0, 4, 256),
                  "light": (200_000, 0.5, 16, 64)}
ZIPF_HOT_SKEW = 1.2


def zipf_hot() -> FigureResult:
    """Zipf-skewed 95/5 open-loop reads on zk, with and without leases.

    The cached cells turn on lease-protected client caching; writes pick
    keys uniformly so leases on hot keys live long enough to matter.
    Both pairs run on three replicas with local reads and no observers.
    """
    figure = FigureResult(
        "Zipf-hot",
        f"zk open loop, 95/5 reads over 512 keys, Zipf {ZIPF_HOT_SKEW:g}: plain "
        "local reads vs lease-protected client caching")
    for load, (clients, rate, sessions, inflight) in ZIPF_HOT_LOADS.items():
        for cached in (False, True):
            workload = Workload(mix={"read": 0.95, "write": 0.05},
                                skew=ZIPF_HOT_SKEW, clients=clients,
                                ops_per_client_s=rate, keys=512,
                                cached_reads=cached, write_skew=0.0)
            name = f"zk {load} {'cached' if cached else 'baseline'}"
            figure.series[name] = [run_openloop_workload(
                "zk", workload, measure_ms=400.0, warmup_ms=150.0,
                n_observers=0, sessions=sessions,
                inflight_per_session=inflight)]

    def ratio(key: str, numerator: str, denominator: str) -> float:
        return (figure.series[numerator][0].extra[key]
                / figure.series[denominator][0].extra[key])

    throughput = ratio("read_ops_per_s", "zk saturated cached",
                       "zk saturated baseline")
    p50 = ratio("read_p50_ms", "zk light baseline", "zk light cached")
    figure.notes.append(
        f"saturated read throughput with caching: {throughput:.2f}x")
    figure.notes.append(f"light-load read p50 speedup with caching: {p50:.0f}x")
    return figure
