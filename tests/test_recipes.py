"""Correctness tests for the four coordination recipes on all systems.

Traditional recipes run on plain ZooKeeper and DepSpace; extension
recipes on EZK and EDS — the same matrix as the paper's §6.
"""

import pytest

from tests.recipe_helpers import make_coords, make_ensemble, run_all
from repro.core.errors import ObjectExistsError
from repro.recipes import (ExtensionBarrier, ExtensionElection,
                           ExtensionQueue, ExtensionSharedCounter,
                           TraditionalBarrier, TraditionalElection,
                           TraditionalQueue, TraditionalSharedCounter,
                           ensure_object)
from repro.zk.errors import ConnectionLossError, NodeExistsError

TRADITIONAL_SYSTEMS = ("zk", "ds")
EXTENSIBLE_SYSTEMS = ("ezk", "eds")


def build_counters(kind, n_clients):
    ensemble = make_ensemble(kind, seed=21)
    coords, _raw = make_coords(ensemble, kind, n_clients)
    if kind in EXTENSIBLE_SYSTEMS:
        counters = [ExtensionSharedCounter(c) for c in coords]
        run_all(ensemble, counters[0].setup(register=True))
        run_all(ensemble, *[c.setup(register=False) for c in counters[1:]])
    else:
        counters = [TraditionalSharedCounter(c) for c in coords]
        run_all(ensemble, counters[0].setup())
    return ensemble, counters


class TestSharedCounter:
    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_no_lost_updates_under_contention(self, kind):
        n_clients, per_client = 4, 5
        ensemble, counters = build_counters(kind, n_clients)

        def worker(counter):
            for _ in range(per_client):
                yield from counter.increment()

        run_all(ensemble, *[worker(c) for c in counters])
        final = run_all(ensemble, counters[0].read())[0]
        assert final == n_clients * per_client

    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_increment_returns_new_value(self, kind):
        ensemble, counters = build_counters(kind, 1)

        def worker(counter):
            values = []
            for _ in range(3):
                value = yield from counter.increment()
                values.append(value)
            return values

        assert run_all(ensemble, worker(counters[0]))[0] == [1, 2, 3]

    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS)
    def test_traditional_retries_under_contention(self, kind):
        ensemble, counters = build_counters(kind, 4)

        def worker(counter):
            for _ in range(5):
                yield from counter.increment()

        run_all(ensemble, *[worker(c) for c in counters])
        attempts = sum(c.attempts for c in counters)
        successes = sum(c.successes for c in counters)
        assert successes == 20
        assert attempts > successes  # contention forced retries


def build_queues(kind, n_clients):
    ensemble = make_ensemble(kind, seed=22)
    coords, _raw = make_coords(ensemble, kind, n_clients)
    if kind in EXTENSIBLE_SYSTEMS:
        queues = [ExtensionQueue(c) for c in coords]
        run_all(ensemble, queues[0].setup(register=True))
        run_all(ensemble, *[q.setup(register=False) for q in queues[1:]])
    else:
        queues = [TraditionalQueue(c) for c in coords]
        run_all(ensemble, queues[0].setup())
    return ensemble, queues


class TestDistributedQueue:
    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_fifo_single_client(self, kind):
        ensemble, queues = build_queues(kind, 1)
        queue = queues[0]

        def scenario():
            for payload in (b"a", b"b", b"c"):
                yield from queue.add(payload)
            removed = []
            for _ in range(3):
                data = yield from queue.remove()
                removed.append(data)
            return removed

        assert run_all(ensemble, scenario())[0] == [b"a", b"b", b"c"]

    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_each_element_consumed_exactly_once(self, kind):
        n_clients, per_client = 3, 4
        ensemble, queues = build_queues(kind, n_clients)
        consumed = []

        def worker(queue, tag):
            for i in range(per_client):
                yield from queue.add(f"{tag}-{i}".encode())
                data = yield from queue.remove()
                consumed.append(data)

        run_all(ensemble,
                *[worker(q, i) for i, q in enumerate(queues)])
        assert len(consumed) == n_clients * per_client
        assert len(set(consumed)) == len(consumed)  # no duplicates

    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_empty_queue_remove(self, kind):
        ensemble, queues = build_queues(kind, 1)

        def scenario():
            return (yield from queues[0].remove(empty_ok=True))

        assert run_all(ensemble, scenario())[0] is None


def build_barriers(kind, n_clients):
    ensemble = make_ensemble(kind, seed=23)
    coords, _raw = make_coords(ensemble, kind, n_clients)
    if kind in EXTENSIBLE_SYSTEMS:
        barriers = [ExtensionBarrier(c, threshold=n_clients) for c in coords]
        run_all(ensemble, barriers[0].setup(register=True))
        run_all(ensemble, *[b.setup(register=False) for b in barriers[1:]])
    else:
        barriers = [TraditionalBarrier(c, threshold=n_clients)
                    for c in coords]
        run_all(ensemble, barriers[0].setup())
        run_all(ensemble, barriers[0].setup_round(0))
        run_all(ensemble, barriers[0].setup_round(1))
    return ensemble, barriers


class TestDistributedBarrier:
    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_nobody_passes_before_the_last_arrives(self, kind):
        n_clients = 3
        ensemble, barriers = build_barriers(kind, n_clients)
        env = ensemble.env
        last_arrival = 200.0
        exits = []

        def worker(barrier, index):
            yield env.timeout(index * 100.0)  # staggered arrivals
            yield from barrier.enter(0)
            exits.append((index, env.now))

        run_all(ensemble,
                *[worker(b, i) for i, b in enumerate(barriers)])
        assert len(exits) == n_clients
        assert all(when >= last_arrival for _idx, when in exits)

    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_successive_rounds(self, kind):
        n_clients = 2
        ensemble, barriers = build_barriers(kind, n_clients)
        finished = []

        def worker(barrier, index):
            yield from barrier.enter(0)
            yield from barrier.enter(1)
            finished.append(index)

        run_all(ensemble,
                *[worker(b, i) for i, b in enumerate(barriers)])
        assert sorted(finished) == [0, 1]


def build_elections(kind, n_clients):
    ensemble = make_ensemble(kind, seed=24)
    coords, raw = make_coords(ensemble, kind, n_clients)
    if kind in EXTENSIBLE_SYSTEMS:
        elections = [ExtensionElection(c) for c in coords]
        run_all(ensemble, elections[0].setup(register=True))
        run_all(ensemble, *[e.setup(register=False) for e in elections[1:]])
    else:
        elections = [TraditionalElection(c) for c in coords]
        run_all(ensemble, elections[0].setup())
    return ensemble, elections, raw


class TestLeaderElection:
    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_single_client_becomes_leader(self, kind):
        ensemble, elections, _raw = build_elections(kind, 1)

        def scenario():
            yield from elections[0].become_leader()
            return "led"

        assert run_all(ensemble, scenario())[0] == "led"

    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_leadership_rotates_on_abdication(self, kind):
        n_clients = 3
        ensemble, elections, _raw = build_elections(kind, n_clients)
        reigns = []

        def worker(election, index):
            for _ in range(2):
                yield from election.become_leader()
                reigns.append((index, ensemble.env.now))
                yield from election.abdicate()

        run_all(ensemble,
                *[worker(e, i) for i, e in enumerate(elections)])
        assert len(reigns) == n_clients * 2
        # Every client led at least once.
        assert {index for index, _t in reigns} == set(range(n_clients))
        # Reigns never overlap: timestamps are strictly ordered per event.
        times = [t for _i, t in sorted(reigns, key=lambda r: r[1])]
        assert times == sorted(times)

    @pytest.mark.parametrize("kind", TRADITIONAL_SYSTEMS + EXTENSIBLE_SYSTEMS)
    def test_leader_failure_triggers_reelection(self, kind):
        ensemble, elections, raw = build_elections(kind, 2)
        log = []

        def first(election):
            yield from election.become_leader()
            log.append(("first-leads", ensemble.env.now))

        def second(election):
            yield ensemble.env.timeout(100.0)
            yield from election.become_leader()
            log.append(("second-leads", ensemble.env.now))

        proc1 = ensemble.env.process(first(elections[0]))
        proc2 = ensemble.env.process(second(elections[1]))
        ensemble.env.run(until=proc1)
        # The first leader dies abruptly; failure detection must elect
        # the second client.
        ensemble.env.run(until=ensemble.env.now + 300.0)
        raw[0].kill()
        ensemble.env.run(until=proc2)
        assert [entry[0] for entry in log] == ["first-leads", "second-leads"]


class _FailingCoord:
    """Coordination client whose every create fails with ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def create(self, object_id, data=b""):
        raise self.exc
        yield  # pragma: no cover - makes this a generator


def _drive(gen):
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


class TestEnsureObject:
    @pytest.mark.parametrize("exc", [NodeExistsError("/o"),
                                     ObjectExistsError("/o")])
    def test_lost_create_race_is_tolerated(self, exc):
        assert _drive(ensure_object(_FailingCoord(exc), "/o")) == "/o"

    def test_connection_loss_propagates(self):
        # The object may not exist: treating the failed create as done
        # left a barrier round with no /ready node, so a peer blocked
        # on it forever (zk/barrier chaos seed 9).
        coord = _FailingCoord(ConnectionLossError("no replica answered"))
        with pytest.raises(ConnectionLossError):
            _drive(ensure_object(coord, "/ready/2"))
