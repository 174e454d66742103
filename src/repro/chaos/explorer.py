"""Seeded schedule exploration: recipes × systems × fault schedules.

:func:`run_chaos` executes one cell of the matrix — a recipe workload
on one of the four systems under one seeded fault schedule — records
the full operation history, and hands it to the appropriate checker.
The returned :class:`ChaosRun` carries a ``repro`` line that replays
the exact run from the command line::

    PYTHONPATH=src python -m repro.chaos --system ezk --recipe queue --seed 17

Workload shape per recipe (``n_clients`` closed-loop clients):

* ``counter``  — each client performs ``ops_per_client`` increments
  (``inc`` marks); after quiescence one client syncs and reads the
  final value (``final-read``).
* ``queue``    — each client adds ``ops_per_client`` uniquely-tagged
  elements and removes some (``add``/``remove``); after quiescence one
  client drains to empty (``drain-remove``).
* ``barrier``  — all clients pass ``rounds`` barrier episodes
  (``enter`` marks, key = round id), threshold = ``n_clients``.
* ``election`` — each client wins and resigns the leadership twice
  (``lead``/``abdicate`` marks).

Every operation that faults may interrupt is wrapped in a bounded
retry: each attempt is its own history record, so the checkers see
failed attempts as in-doubt operations and widen their envelopes
accordingly instead of raising false alarms.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..bench.systems import EXTENSIBLE, make_chaos_ensemble
from ..recipes import (ExtensionBarrier, ExtensionElection, ExtensionQueue,
                       ExtensionSharedCounter, TraditionalBarrier,
                       TraditionalElection, TraditionalQueue,
                       TraditionalSharedCounter)
from .checker import (CheckResult, check_barrier_history,
                      check_counter_history, check_election_history,
                      check_queue_history)
from .history import History, RecordingCoord
from .nemesis import Nemesis
from .schedule import Schedule, random_schedule

__all__ = ["RECIPES", "ChaosRun", "run_chaos", "repro_line"]

RECIPES = ("counter", "queue", "barrier", "election")

#: how long after the schedule's quiesce the workload may run before
#: the harness declares a liveness failure.
_DEADLINE_MARGIN_MS = 40_000.0
_SETTLE_MS = 3_000.0
_RETRY_PAUSE_MS = 400.0
_OP_RETRIES = 5


def repro_line(system: str, recipe: str, seed: int,
               kernel: Optional[str] = None) -> str:
    line = (f"PYTHONPATH=src python -m repro.chaos "
            f"--system {system} --recipe {recipe} --seed {seed}")
    # Default-kernel lines stay exactly as they always were, so repro
    # lines recorded before the kernel axis existed replay unchanged.
    if kernel is not None:
        line += f" --kernel {kernel}"
    return line


@dataclasses.dataclass
class ChaosRun:
    system: str
    recipe: str
    seed: int
    schedule: Schedule
    history: History
    result: CheckResult
    nemesis_log: List[str]
    repro: str
    #: consensus kernel the cell ran over (None = the family default).
    kernel: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result.ok


# ---------------------------------------------------------------------------
# workload helpers
# ---------------------------------------------------------------------------


def _attempt(env, coord: RecordingCoord, op: str, key: str, gen_factory,
             retries: int = _OP_RETRIES, arg=None):
    """Run a recorded recipe op, retrying on client-library exceptions.

    Each attempt is its own invoke/completion pair: a failed attempt
    whose effect *did* land server-side is exactly what the checkers'
    in-doubt envelope accounts for.
    """
    for attempt in range(retries):
        try:
            value = yield from coord.mark(op, key, arg, gen_factory())
            return value
        except Exception:
            if attempt == retries - 1:
                return None
            yield env.timeout(_RETRY_PAUSE_MS)
    return None


def _sync_if_zk(coord: RecordingCoord):
    """Raise the session's read floor to the leader's commit point."""
    zk = getattr(coord.inner, "zk", None)
    if zk is not None:
        try:
            yield from zk.sync()
        except Exception:
            pass
    return None


def _run_to(env, proc_or_none, deadline_ms: float) -> bool:
    """Advance the sim until ``proc`` completes or the deadline passes."""
    if proc_or_none is None:
        env.run(until=deadline_ms)
        return True
    guard = env.any_of([proc_or_none,
                        env.timeout(max(0.0, deadline_ms - env.now))])
    env.run(until=guard)
    return proc_or_none.triggered


class _Workload:
    """One recipe workload: setup generator, worker generators, finisher."""

    def __init__(self, recipe: str, system: str, coords, env,
                 ops_per_client: int, rounds: int, span_ms: float):
        self.recipe = recipe
        self.system = system
        self.coords = coords
        self.env = env
        self.ops = ops_per_client
        self.rounds = rounds
        #: the workload is paced to cover this window (the schedule's
        #: full fault span): a burst of ops at t=0 would finish long
        #: before the first fault fires and test nothing.
        self.span = span_ms
        self.extension = system in EXTENSIBLE
        self.instances = [self._make_instance(c) for c in coords]

    def _make_instance(self, coord):
        n = len(self.coords)
        if self.recipe == "counter":
            return (ExtensionSharedCounter(coord) if self.extension
                    else TraditionalSharedCounter(coord))
        if self.recipe == "queue":
            return (ExtensionQueue(coord) if self.extension
                    else TraditionalQueue(coord))
        if self.recipe == "barrier":
            return (ExtensionBarrier(coord, n) if self.extension
                    else TraditionalBarrier(coord, n))
        if self.recipe == "election":
            return (ExtensionElection(coord) if self.extension
                    else TraditionalElection(coord))
        raise ValueError(f"unknown recipe {self.recipe!r}")

    # -- pre-fault setup ---------------------------------------------------

    def setup(self):
        first, rest = self.instances[0], self.instances[1:]
        if self.extension:
            yield from first.setup(register=True)
            for inst in rest:
                yield from inst.setup(register=False)
        else:
            for inst in self.instances:
                yield from inst.setup()
        if self.recipe == "barrier" and not self.extension:
            for round_id in range(self.rounds):
                yield from first.setup_round(round_id)

    # -- faulted phase -----------------------------------------------------

    def workers(self):
        return [self._worker(i) for i in range(len(self.instances))]

    def _worker(self, i: int):
        coord = self.coords[i]
        inst = self.instances[i]
        env = self.env
        n = len(self.coords)
        if self.recipe == "counter":
            gap = self.span / self.ops
            yield env.timeout(gap * i / n)      # stagger the clients
            for _ in range(self.ops):
                yield from _attempt(env, coord, "inc", "/ctr",
                                    lambda: inst.increment())
                yield env.timeout(gap)
        elif self.recipe == "queue":
            gap = self.span / self.ops
            yield env.timeout(gap * i / n)
            for k in range(self.ops):
                payload = f"c{i}:{k:04d}".encode()
                yield from _attempt(
                    env, coord, "add", payload.decode(),
                    lambda p=payload: inst.add(p), arg=payload)
                # Interleave removals so consumers race the faults.
                if k % 2 == 1:
                    yield from _attempt(env, coord, "remove", "",
                                        lambda: inst.remove(empty_ok=True))
                yield env.timeout(gap)
        elif self.recipe == "barrier":
            gap = self.span / self.rounds
            for round_id in range(self.rounds):
                yield from self._barrier_enter(i, round_id)
                yield env.timeout(gap)
        elif self.recipe == "election":
            cycles = 2
            gap = self.span / (cycles + 1)
            yield env.timeout(20.0 * i)
            for _ in range(cycles):
                won = yield from _attempt(env, coord, "lead", "",
                                          lambda: inst.become_leader(),
                                          retries=3)
                if won is None:
                    return      # never elected: drop out, others proceed
                yield env.timeout(20.0)
                yield from _attempt(env, coord, "abdicate", "",
                                    lambda: inst.abdicate(), retries=3)
                yield env.timeout(gap)

    def _barrier_enter(self, i: int, round_id: int):
        """Barrier entry with a recovery path for interrupted attempts.

        A retried traditional ``enter`` would re-create this client's
        registration and fail with an exists error, so the retry path
        reproduces the recipe's steps with a tolerant create. Every
        client *must* eventually pass or everyone blocks — a genuine
        stall surfaces as a liveness failure at the deadline.
        """
        coord = self.coords[i]
        inst = self.instances[i]
        env = self.env

        def tolerant_enter():
            from ..recipes.barrier import BARRIER_ROOT, READY_ROOT
            from ..recipes.util import ensure_object
            cid = coord.client_id
            yield from ensure_object(
                coord, f"{BARRIER_ROOT}/{round_id}/{cid}")
            objs = yield from coord.sub_objects(
                f"{BARRIER_ROOT}/{round_id}", with_data=False)
            ready = f"{READY_ROOT}/{round_id}"
            if len(objs) < inst.threshold:
                yield from coord.block(ready)
            else:
                yield from ensure_object(coord, ready)
            return True

        def one_round():
            if self.extension:
                value = yield from inst.enter(round_id)
                return value
            try:
                value = yield from inst.enter(round_id)
                return value
            except Exception:
                pass
            while True:
                try:
                    value = yield from tolerant_enter()
                    return value
                except Exception:
                    yield env.timeout(_RETRY_PAUSE_MS)

        yield from _attempt(env, coord, "enter", str(round_id), one_round,
                            retries=_OP_RETRIES)

    # -- quiescent final phase ---------------------------------------------

    def finisher(self):
        """Generator run after quiesce+settle; returns None."""
        coord = self.coords[0]
        inst = self.instances[0]
        if self.recipe == "counter":
            yield from _sync_if_zk(coord)
            yield from coord.mark("final-read", "/ctr", None, inst.read())
        elif self.recipe == "queue":
            empties = 0
            while empties < 2:
                yield from _sync_if_zk(coord)
                value = yield from coord.mark("drain-remove", "", None,
                                              inst.remove(empty_ok=True))
                empties = empties + 1 if value is None else 0
        return None

    # -- verdict -----------------------------------------------------------

    def check(self, history: History) -> CheckResult:
        ops = history.ops()
        if self.recipe == "counter":
            return check_counter_history(ops)
        if self.recipe == "queue":
            return check_queue_history(ops)
        if self.recipe == "barrier":
            return check_barrier_history(ops, threshold=len(self.coords))
        return check_election_history(ops)


# ---------------------------------------------------------------------------
# the run driver
# ---------------------------------------------------------------------------


def run_chaos(system: str, recipe: str, seed: int, n_clients: int = 3,
              ops_per_client: int = 4, rounds: int = 3,
              schedule: Optional[Schedule] = None,
              nemesis_cls=Nemesis, kernel: Optional[str] = None,
              obs=None) -> ChaosRun:
    """One cell of the chaos matrix; returns history + checker verdict.

    ``kernel`` adds the consensus-kernel axis: ``"raft"`` runs the same
    cell over the Raft backend (``None`` keeps the family default).
    ``obs`` (an :class:`~repro.obs.ObsConfig`) traces the replay; the
    fault schedule and history are unchanged either way.
    """
    if recipe not in RECIPES:
        raise ValueError(f"unknown recipe {recipe!r}")
    schedule = schedule or random_schedule(seed)
    repro = repro_line(system, recipe, seed, kernel=kernel)

    ensemble, raw = make_chaos_ensemble(system, seed=seed,
                                        n_clients=n_clients, kernel=kernel,
                                        obs=obs)
    env = ensemble.env
    history = History()
    coords = [RecordingCoord(c, history, f"c{i}", env)
              for i, c in enumerate(_adapt(system, raw))]
    workload = _Workload(recipe, system, coords, env, ops_per_client,
                         rounds, span_ms=schedule.quiesce_ms + 500.0)

    # Setup runs pre-fault: the harness tests recipes under faults, not
    # bootstrap under faults (registration durability has its own test).
    setup = env.process(workload.setup())
    env.run(until=setup)

    nemesis = nemesis_cls(ensemble, schedule, clients=raw)
    nemesis.start()
    workers = [env.process(gen) for gen in workload.workers()]
    deadline = schedule.quiesce_ms + _DEADLINE_MARGIN_MS
    done = _run_to(env, env.all_of(workers), deadline)
    if not done:
        # Worker label and the client's node id, the name traces use.
        stuck = [f"c{i}={raw[i].node_id}"
                 for i, p in enumerate(workers) if not p.triggered]
        return ChaosRun(system, recipe, seed, schedule, history,
                        CheckResult(False, f"liveness: workers {stuck} "
                                           f"stuck at t={env.now:g}ms"),
                        nemesis.log, repro, kernel=kernel)

    env.run(until=env.now + _SETTLE_MS)
    finisher = env.process(workload.finisher())
    if not _run_to(env, finisher, env.now + _DEADLINE_MARGIN_MS):
        return ChaosRun(system, recipe, seed, schedule, history,
                        CheckResult(False, "liveness: final phase stuck"),
                        nemesis.log, repro, kernel=kernel)

    consistent = _await_consistency(ensemble)
    if not consistent:
        return ChaosRun(system, recipe, seed, schedule, history,
                        CheckResult(False, "replicas diverged after heal"),
                        nemesis.log, repro, kernel=kernel)

    return ChaosRun(system, recipe, seed, schedule, history,
                    workload.check(history), nemesis.log, repro, kernel=kernel)


def _adapt(system: str, raw) -> list:
    from ..recipes import DsCoordClient, ZkCoordClient
    if system in ("zk", "ezk"):
        return [ZkCoordClient(c) for c in raw]
    return [DsCoordClient(c) for c in raw]


def _await_consistency(ensemble, tries: int = 24,
                       pause_ms: float = 500.0) -> bool:
    check = getattr(ensemble, "trees_consistent", None) \
        or getattr(ensemble, "spaces_consistent")
    for _ in range(tries):
        if check():
            return True
        ensemble.env.run(until=ensemble.env.now + pause_ms)
    return bool(check())
