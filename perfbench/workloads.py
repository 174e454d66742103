"""The benchmark's four workloads, their correctness gates and metrics.

Every workload is built only from the simulator's public entry points:
``make_ensemble``/``make_coords``, the recipes, ``Workload`` and the
servers' ``crash``/``recover``. One *episode* is a fresh ensemble built
from the seed (set-up), a warm-up, a measured window of simulated time,
and a drain in which every request that was started (closed loop) or
came due (open loop) inside the window is finished. Episodes are pure
functions of the seed: two episodes with one seed produce the same
simulated metrics and counts, in one process or in two.

Latency percentiles follow one rule: a percentile is reported only when
at least ten samples lie beyond it; otherwise it is ``None``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.openloop import Workload, _zipf_cdf
from repro.bench.systems import make_coords, make_ensemble, run_all
from repro.depspace.server import DsConfig
from repro.depspace.tuples import TupleSpaceError
from repro.obs import ObsConfig
from repro.recipes import (ExtensionQueue, ExtensionSharedCounter,
                           TraditionalQueue, ensure_object)
from repro.zk.errors import ZkError
from repro.zk.server import ZkConfig

__all__ = ["WORKLOADS", "Spec", "Episode", "run_episode", "percentile"]

#: Errors a client call may raise on purpose; anything else is a bug
#: and ends the run.
CLIENT_ERRORS = (ZkError, TupleSpaceError)

OBJECT_BYTES = 256

#: The simulation advances in slices of window / SLICES_PER_WINDOW, so a
#: measured run can gauge the machine between them.
SLICES_PER_WINDOW = 40


@dataclass(frozen=True)
class Spec:
    """One workload: its system, load and simulated-time plan (ms)."""

    name: str
    system: str
    loop: str
    warmup_ms: float
    window_ms: float
    #: drain cap after the window; requests still open then are failed.
    drain_cap_ms: float
    params: Dict[str, object] = field(default_factory=dict)


#: The open loop's traffic, in the simulator's own ``Workload`` terms.
OPENLOOP_TRAFFIC = Workload(mix={"read": 0.9, "write": 0.1}, skew=0.99,
                            arrival="poisson", clients=100_000,
                            ops_per_client_s=0.5, keys=512,
                            churn_per_s=2000.0)

#: The workloads, in BENCHMARK.json order (which also says why each is
#: here). Windows are sized for at least 2000 latency samples, so the
#: p99.5 has its ten samples beyond.
WORKLOADS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("queue-zk", "zk", "closed",
         warmup_ms=100.0, window_ms=3600.0, drain_cap_ms=5000.0,
         params={"clients": 32, "op": "add then remove (one element)"}),
    Spec("mixed-ezk", "ezk", "closed",
         warmup_ms=100.0, window_ms=250.0, drain_cap_ms=2000.0,
         params={"queue_clients": 8, "readers": 15, "writers": 15,
                 "object_bytes": OBJECT_BYTES}),
    Spec("counter-eds", "eds", "closed",
         warmup_ms=100.0, window_ms=200.0, drain_cap_ms=2000.0,
         params={"clients": 10, "replicas": 4}),
    Spec("openloop-failover-zk", "zk", "open",
         warmup_ms=100.0, window_ms=800.0, drain_cap_ms=4000.0,
         params={"modeled_clients": OPENLOOP_TRAFFIC.clients,
                 "ops_per_client_s": OPENLOOP_TRAFFIC.ops_per_client_s,
                 "mix": OPENLOOP_TRAFFIC.mix, "zipf": OPENLOOP_TRAFFIC.skew,
                 "keys": OPENLOOP_TRAFFIC.keys,
                 "churn_per_s": OPENLOOP_TRAFFIC.churn_per_s,
                 "sessions": 16, "inflight_per_session": 256,
                 "observers": 2, "local_reads": True,
                 "crash_at_ms": 150.0, "restart_after_ms": 300.0}),
)}


def percentile(ordered: List[float], p: float) -> Optional[float]:
    """Nearest-rank percentile, or None with fewer than 10 samples beyond."""
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < 10:
        return None
    return ordered[rank - 1]


class Recorder:
    """Window accounting shared by the closed and the open loop.

    An operation belongs to the window when it *starts* (closed loop) or
    *comes due* (open loop) inside it; its latency runs from that
    instant to its completion, even when it completes in the drain.
    """

    def __init__(self, env, start: float, end: float):
        self.env = env
        self.start = start
        self.end = end
        self.attempted = 0
        self.failed = 0
        self.completed_in_window = 0
        self.total_completed = 0    # every op of the episode
        self.open = 0               # window ops not yet finished
        self.latency: List[float] = []
        self.read_latency: List[float] = []
        self.write_latency: List[float] = []
        self.write_done_at: List[float] = []

    def begin(self, t0: float) -> bool:
        if self.start <= t0 < self.end:
            self.attempted += 1
            self.open += 1
            return True
        return False

    def finish(self, t0: float, is_write: bool, kind: str = "") -> None:
        now = self.env.now
        self.total_completed += 1
        if self.start <= now <= self.end:
            self.completed_in_window += 1
            if is_write:
                self.write_done_at.append(now)
        if not self.start <= t0 < self.end:
            return
        self.open -= 1
        latency = now - t0
        self.latency.append(latency)
        if kind == "read":
            self.read_latency.append(latency)
        elif kind == "write":
            self.write_latency.append(latency)

    def fail(self, t0: float) -> None:
        if self.start <= t0 < self.end:
            self.open -= 1
            self.failed += 1


@dataclass
class Fixture:
    """A built ensemble plus what the workload needs to drive and check it."""

    ensemble: object
    raw: list
    state: Dict[str, object]


@dataclass
class Episode:
    """Everything one episode measured."""

    setup_s: float
    sim_wall_s: float
    attempted: int
    failed: int
    violations: List[Tuple[str, int]]
    sim: Dict[str, Optional[float]]
    counts: Dict[str, float]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _config(system: str, obs: Optional[ObsConfig], **kwargs):
    if system in ("zk", "ezk"):
        return ZkConfig(obs=obs, **kwargs)
    return DsConfig(obs=obs, **kwargs)


def _payload(tag: str) -> bytes:
    return tag.encode().ljust(OBJECT_BYTES, b".")


def setup(spec: Spec, seed: int, obs: Optional[ObsConfig] = None) -> Fixture:
    """Build, connect, register extensions and preload objects."""
    if spec.name == "openloop-failover-zk":
        ens = make_ensemble("zk", seed=seed,
                            config=_config("zk", obs, local_reads=True),
                            n_observers=spec.params["observers"])
        coords, raw = make_coords(ens, "zk", spec.params["sessions"])
        for key in range(OPENLOOP_TRAFFIC.keys):
            run_all(ens, ensure_object(coords[key % len(coords)],
                                       f"/ol{key}", _payload(f"init-{key}")))
        return Fixture(ens, raw, {})
    ens = make_ensemble(spec.system, seed=seed,
                        config=_config(spec.system, obs))
    if spec.name == "queue-zk":
        coords, raw = make_coords(ens, "zk", spec.params["clients"])
        queues = [TraditionalQueue(c) for c in coords]
        run_all(ens, queues[0].setup())
        return Fixture(ens, raw, {"queues": queues})
    if spec.name == "mixed-ezk":
        n_queue = spec.params["queue_clients"]
        n_read = spec.params["readers"]
        total = n_queue + n_read + spec.params["writers"]
        coords, raw = make_coords(ens, "ezk", total)
        queues = [ExtensionQueue(c) for c in coords[:n_queue]]
        run_all(ens, queues[0].setup(register=True))
        for queue in queues[1:]:
            run_all(ens, queue.setup(register=False))
        regular = coords[n_queue:]
        for index, coord in enumerate(regular):
            run_all(ens, ensure_object(coord, f"/reg{index}",
                                       _payload(f"reg-{index}")))
        return Fixture(ens, raw, {"queues": queues,
                                  "readers": regular[:n_read],
                                  "writers": regular[n_read:]})
    if spec.name == "counter-eds":
        coords, raw = make_coords(ens, "eds", spec.params["clients"])
        counters = [ExtensionSharedCounter(c) for c in coords]
        run_all(ens, counters[0].setup(register=True))
        for counter in counters[1:]:
            run_all(ens, counter.setup(register=False))
        return Fixture(ens, raw, {"counters": counters})
    raise ValueError(f"unknown workload {spec.name!r}")


# ---------------------------------------------------------------------------
# load: closed loop
# ---------------------------------------------------------------------------

class Ledger:
    """What the clients were acknowledged, for the correctness gates."""

    def __init__(self):
        self.added = set()
        self.removed: List[bytes] = []
        self.increments: List[int] = []
        self.bad_reads = 0
        self.last_write: Dict[str, bytes] = {}
        #: open loop: key -> {version: payload} of acknowledged writes.
        self.acked: Dict[int, Dict[int, bytes]] = {}
        self.unacked: Dict[int, List[bytes]] = {}
        #: client calls that raised (their effect may still apply).
        self.errors = 0


def queue_pair(queue, ledger: Ledger, tag: str):
    """Add one element, then remove one (the Fig. 8 unit of work)."""
    payload = tag.encode()
    yield from queue.add(payload)
    ledger.added.add(payload)
    data = yield from queue.remove()
    ledger.removed.append(data)
    return "pair"


def counter_increment(counter, ledger: Ledger, tag: str):
    value = yield from counter.increment()
    ledger.increments.append(int(value))
    return "increment"


def regular_read(coord, ledger: Ledger, tag: str, path: str,
                 expected: bytes):
    data = yield from coord.read(path)
    if data != expected:
        ledger.bad_reads += 1
    return "read"


def regular_write(coord, ledger: Ledger, tag: str, path: str):
    payload = _payload(tag)
    yield from coord.update(path, payload)
    ledger.last_write[path] = payload
    return "write"


def closed_client(env, rec: Recorder, name: str, op: Callable, target,
                  ledger: Ledger, *extra):
    """One closed-loop client: the next op starts when the last returns."""
    seq = 0
    while env.now < rec.end:
        t0 = env.now
        counted = rec.begin(t0)
        seq += 1
        try:
            kind = yield from op(target, ledger, f"{name}-{seq}", *extra)
        except CLIENT_ERRORS:
            ledger.errors += 1
            if counted:
                rec.fail(t0)
            continue
        rec.finish(t0, kind != "read", kind)


def start_closed(spec: Spec, fix: Fixture, rec: Recorder,
                 ledger: Ledger) -> None:
    env = fix.ensemble.env
    state = fix.state
    if spec.name == "counter-eds":
        for i, counter in enumerate(state["counters"]):
            env.process(closed_client(env, rec, f"c{i}", counter_increment,
                                      counter, ledger))
        return
    for i, queue in enumerate(state["queues"]):
        env.process(closed_client(env, rec, f"q{i}", queue_pair, queue,
                                  ledger))
    if spec.name == "mixed-ezk":
        for i, coord in enumerate(state["readers"]):
            env.process(closed_client(env, rec, f"r{i}", regular_read, coord,
                                      ledger, f"/reg{i}",
                                      _payload(f"reg-{i}")))
        offset = len(state["readers"])
        for i, coord in enumerate(state["writers"]):
            env.process(closed_client(env, rec, f"w{i}", regular_write, coord,
                                      ledger, f"/reg{offset + i}"))


# ---------------------------------------------------------------------------
# load: open loop with a leader crash
# ---------------------------------------------------------------------------

class OpenLoop:
    """Arrival stream, executor pool, session churn and the fault."""

    def __init__(self, spec: Spec, fix: Fixture, rec: Recorder,
                 ledger: Ledger, seed: int):
        self.env = fix.ensemble.env
        self.fix = fix
        self.rec = rec
        self.ledger = ledger
        self.rng = random.Random(f"perfbench-openloop-{seed}")
        self.churn_rng = random.Random(f"perfbench-churn-{seed}")
        self.cdf = _zipf_cdf(OPENLOOP_TRAFFIC.keys, OPENLOOP_TRAFFIC.skew)
        self.pending: deque = deque()
        self.idle: deque = deque()
        self.max_backlog = 0
        self.writes = 0
        self.churned = 0
        self.restart_after_ms = spec.params["restart_after_ms"]
        self.crash_at_ms = spec.params["crash_at_ms"]
        self.initial_epoch = fix.ensemble.leader.broadcast.leadership_epoch

    def arrivals(self):
        env, rng, rec = self.env, self.rng, self.rec
        rate = OPENLOOP_TRAFFIC.rate_ops_per_ms
        read_share = OPENLOOP_TRAFFIC.mix["read"]
        last_key = OPENLOOP_TRAFFIC.keys - 1
        while True:
            yield env.timeout(rng.expovariate(rate))
            if env.now >= rec.end:
                return
            key = min(bisect_right(self.cdf, rng.random()), last_key)
            is_read = rng.random() < read_share
            rec.begin(env.now)
            self.pending.append((env.now, is_read, key))
            if len(self.pending) > self.max_backlog:
                self.max_backlog = len(self.pending)
            if self.idle:
                self.idle.popleft().succeed()

    def executor(self, client):
        env, rec, ledger = self.env, self.rec, self.ledger
        while True:
            while not self.pending:
                if env.now >= rec.end:
                    return
                slot = env.event()
                self.idle.append(slot)
                yield slot
            due, is_read, key = self.pending.popleft()
            path = f"/ol{key}"
            if is_read:
                try:
                    yield from client.get_data(path)
                except CLIENT_ERRORS:
                    ledger.errors += 1
                    rec.fail(due)
                    continue
                rec.finish(due, False, "read")
                continue
            self.writes += 1
            payload = _payload(f"w{self.writes}")
            try:
                stat = yield from client.set_data(path, payload)
            except CLIENT_ERRORS:
                ledger.errors += 1
                ledger.unacked.setdefault(key, []).append(payload)
                rec.fail(due)
                continue
            ledger.acked.setdefault(key, {})[stat.version] = payload
            rec.finish(due, True, "write")

    def churn_session(self, index: int):
        client = self.fix.ensemble.client(node_id=f"pbchurn{index}",
                                          resilient=True)
        try:
            yield from client.connect()
            yield from client.create(f"/pbchurn{index}", b"c",
                                     ephemeral=True)
        except CLIENT_ERRORS:
            return
        if index % 4 == 3:
            client.abandon()      # left to session expiry
            return
        try:
            yield from client.close()
        except CLIENT_ERRORS:
            pass

    def churner(self):
        env = self.env
        rate = OPENLOOP_TRAFFIC.churn_per_s / 1000.0
        while True:
            yield env.timeout(self.churn_rng.expovariate(rate))
            if env.now >= self.rec.end:
                return
            self.churned += 1
            env.process(self.churn_session(self.churned))

    def crash_leader(self):
        leader = self.fix.ensemble.leader
        leader.crash()
        self.env.defer(self.restart_after_ms, leader.recover)

    def start(self, inflight_per_session: int) -> None:
        env = self.env
        env.process(self.arrivals())
        env.process(self.churner())
        for client in self.fix.raw:
            for _ in range(inflight_per_session):
                env.process(self.executor(client))
        env.defer(self.rec.start - env.now + self.crash_at_ms,
                  self.crash_leader)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _final_reads(fix: Fixture, paths: List[str]):
    """Read ``paths`` through a client after a sync (post-drain, untimed)."""
    client = fix.raw[0]
    out = {}

    def read_all():
        yield from client.sync()
        for path in paths:
            out[path] = yield from client.get_data(path)

    run_all(fix.ensemble, read_all())
    return out


def check(spec: Spec, fix: Fixture, ledger: Ledger,
          loop: Optional[OpenLoop]) -> List[Tuple[str, int]]:
    """Output-correctness gate: ``(violation, operations it spoils)``."""
    violations: List[Tuple[str, int]] = []
    ens = fix.ensemble
    if spec.name in ("queue-zk", "mixed-ezk"):
        twice = len(ledger.removed) - len(set(ledger.removed))
        if twice:
            violations.append(("queue: elements removed twice", twice))
        strays = sum(1 for d in ledger.removed if d not in ledger.added)
        if strays:
            violations.append(("queue: removed elements never added",
                               strays))
    if spec.name == "mixed-ezk":
        if ledger.bad_reads:
            violations.append(("reads: value never written",
                               ledger.bad_reads))
        finals = _final_reads(fix, sorted(ledger.last_write))
        wrong = sum(1 for p, (data, _stat) in finals.items()
                    if data != ledger.last_write[p])
        if wrong:
            violations.append(("writes: last acknowledged write lost",
                               wrong))
    if spec.name == "counter-eds":
        counter = fix.state["counters"][0]
        final = run_all(ens, counter.read())[0]
        acked = len(ledger.increments)
        # An increment whose call raised may still have applied.
        if not acked <= final <= acked + ledger.errors:
            violations.append((f"counter: final value {final} for {acked} "
                               "acknowledged increments",
                               abs(final - acked)))
        repeats = acked - len(set(ledger.increments))
        if repeats:
            violations.append(("counter: increments returned one value",
                               repeats))
    if spec.name == "openloop-failover-zk":
        leader = ens.leader
        if leader is None:
            violations.append(("failover: no leader after recovery", 0))
        elif leader.broadcast.leadership_epoch <= loop.initial_epoch:
            violations.append(("failover: no new leader epoch", 0))
        keys = sorted(ledger.acked)
        finals = _final_reads(fix, [f"/ol{k}" for k in keys])
        lost = 0
        for key in keys:
            data, stat = finals[f"/ol{key}"]
            newest = max(ledger.acked[key])
            if stat.version < newest or (
                    data != ledger.acked[key][newest]
                    and data not in ledger.unacked.get(key, ())):
                lost += 1
        if lost:
            violations.append(("failover: acknowledged write lost", lost))
    # Replicas settle (commits in flight reach followers) before the
    # state comparison.
    ens.env.run(until=ens.env.now + 100.0)
    consistent = (ens.spaces_consistent() if spec.system in ("ds", "eds")
                  else ens.trees_consistent())
    if not consistent:
        violations.append(("replicas disagree at the end of the run", 0))
    return violations


# ---------------------------------------------------------------------------
# one episode
# ---------------------------------------------------------------------------

def _net_totals(net, nodes=None):
    if nodes is None:
        return sum(net.msgs_sent.values()), sum(net.bytes_sent.values())
    return (sum(net.msgs_sent[n] for n in nodes),
            sum(net.bytes_sent[n] for n in nodes))


def _longest_gap(times: List[float], start: float, end: float) -> float:
    edges = [start] + sorted(times) + [end]
    return max(b - a for a, b in zip(edges, edges[1:]))


def consensus_state(spec: Spec, ens) -> Dict[str, float]:
    """Election and log-size counts read from the replicas' public state."""
    if spec.system in ("zk", "ezk"):
        live = [s for s in ens.servers if s._alive]
        epoch = max(s.broadcast.leadership_epoch for s in live)
        log = max(len(s.broadcast.log) for s in live)
        leader = ens.leader
        closed = (len(leader.sessions.snapshot().get("closed", ()))
                  if leader is not None else 0)
        return {"consensus.elections": float(epoch - 1),
                "consensus.log_records": float(log),
                "sessions.closed_retained": float(closed)}
    view = max(r.bft.view for r in ens.replicas if r._alive)
    executed = max(r.bft._exec_seq for r in ens.replicas if r._alive)
    return {"consensus.elections": float(view),
            "consensus.log_records": float(executed),
            "sessions.closed_retained": 0.0}


def _advance(env, until: float, step: float,
             pause: Optional[Callable[[], None]]) -> float:
    """Run the simulation to ``until`` in slices of ``step`` simulated ms,
    calling ``pause`` between slices; returns the wall seconds spent
    simulating, without the pauses. Slicing does not change the run."""
    spent = 0.0
    while env.now < until:
        t0 = perf_counter()
        env.run(until=min(until, env.now + step))
        spent += perf_counter() - t0
        if pause is not None:
            pause()
    return spent


def run_episode(spec: Spec, seed: int, obs: Optional[ObsConfig] = None,
                pause: Optional[Callable[[], None]] = None) -> Episode:
    """Set up, run warm-up + window + drain, gate, and measure.

    ``pause``, if given, is called between slices of simulated time and
    its wall time is not counted in ``sim_wall_s``.
    """
    t0 = perf_counter()
    fix = setup(spec, seed, obs)
    setup_s = perf_counter() - t0
    ens = fix.ensemble
    env, net = ens.env, ens.net
    client_nodes = [client.node_id for client in fix.raw]
    start = env.now + spec.warmup_ms
    end = start + spec.window_ms
    rec = Recorder(env, start, end)
    ledger = Ledger()
    loop = None
    t1 = perf_counter()
    if spec.loop == "open":
        loop = OpenLoop(spec, fix, rec, ledger, seed)
        loop.start(spec.params["inflight_per_session"])
    else:
        start_closed(spec, fix, rec, ledger)
    sim_wall_s = perf_counter() - t1
    step = spec.window_ms / SLICES_PER_WINDOW
    sim_wall_s += _advance(env, start, step, pause)
    events0 = env.events_processed
    msgs0, bytes0 = _net_totals(net)
    _, client_bytes0 = _net_totals(net, client_nodes)
    sim_wall_s += _advance(env, end, step, pause)
    events1 = env.events_processed
    msgs1, bytes1 = _net_totals(net)
    _, client_bytes1 = _net_totals(net, client_nodes)
    drain_cap = end + spec.drain_cap_ms
    while rec.open > 0 and env.now < drain_cap:
        sim_wall_s += _advance(env, min(drain_cap, env.now + 10.0), step,
                               pause)
    violations = check(spec, fix, ledger, loop)

    spoiled = sum(n for _message, n in violations)
    failed = min(rec.attempted, rec.failed + rec.open + spoiled)
    ops = rec.completed_in_window
    window_s = spec.window_ms / 1000.0
    ordered = sorted(rec.latency)
    reads = sorted(rec.read_latency)
    writes = sorted(rec.write_latency)
    sim = {
        "sim_ops_per_s": ops / window_s,
        "sim_p50_ms": percentile(ordered, 50.0),
        "sim_p99_ms": percentile(ordered, 99.0),
        "sim_p995_ms": percentile(ordered, 99.5),
        "sim_p999_ms": percentile(ordered, 99.9),
        "read_p99_ms": percentile(reads, 99.0),
        "write_p99_ms": percentile(writes, 99.0),
        "client_kb_per_op": ((client_bytes1 - client_bytes0) / 1024.0 / ops
                             if ops else None),
        "unavailable_ms": _longest_gap(rec.write_done_at, start, end),
        "failed_share": failed / rec.attempted if rec.attempted else None,
        "samples": float(len(ordered)),
    }
    counts = {
        "ops": float(ops),
        "sim.events_per_op": (events1 - events0) / ops if ops else 0.0,
        "net.msgs_per_op": (msgs1 - msgs0) / ops if ops else 0.0,
        "net.bytes_per_op": (bytes1 - bytes0) / ops if ops else 0.0,
        "driver.max_backlog": float(loop.max_backlog if loop else 0),
        "total_ops": float(rec.total_completed),
        "wasted_attempts": float(sum(
            q.remove_attempts - q.remove_successes
            for q in fix.state.get("queues", ())
            if isinstance(q, TraditionalQueue))),
    }
    counts.update(consensus_state(spec, ens))
    if loop is not None:
        counts["driver.churn_sessions"] = float(loop.churned)
    return Episode(setup_s=setup_s, sim_wall_s=sim_wall_s,
                   attempted=rec.attempted,
                   failed=failed,
                   violations=violations, sim=sim, counts=counts)
