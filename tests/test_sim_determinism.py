"""Cross-kernel determinism: the calendar queue must deliver the event
stream of a plain heap ordered by ``(when, push order)``.

The calendar queue (repro.sim._calqueue) is a fast event queue, not a
different semantics: replay lines from the chaos explorer and the
committed figure JSONs must come out as the heap oracle in
tests/heap_queue.py would order them. These tests pin that equivalence
at two levels — a synthetic event soup engineered to hit bucket
boundaries, and a full protocol workload.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Environment, Interrupted
from repro.sim._calqueue import DEFAULT_BUCKET_MS
from tests.heap_queue import use_heap_queue


def on_both_queues(monkeypatch, run):
    """``run()`` on the calendar queue, then on the heap oracle."""
    calendar = run()
    with monkeypatch.context() as patch:
        use_heap_queue(patch)
        heap = run()
    return calendar, heap


def _soup_trace(seed: int, n_procs: int = 40,
                horizon: float = 400.0) -> list:
    """Run a randomized process soup and record every wakeup.

    Delays are drawn to stress the calendar queue's corner cases:
    zero-delay wakeups (the imm deque), exact bucket-width multiples
    (floating-point bucket boundaries), sub-bucket jitter (intra-bucket
    ordering), and far-future timers (cold buckets), plus events
    succeeded from other processes and interrupts.
    """
    env = Environment()
    rng = random.Random(seed)
    trace = []
    gates = [env.event() for _ in range(n_procs)]

    def proc(env, me):
        my_rng = random.Random(seed * 1000 + me)
        for step in range(30):
            roll = my_rng.random()
            if roll < 0.15:
                delay = 0.0
            elif roll < 0.35:
                delay = my_rng.randrange(1, 40) * DEFAULT_BUCKET_MS
            elif roll < 0.8:
                delay = my_rng.random() * 2.0
            elif roll < 0.95:
                delay = 50.0 + my_rng.random() * 100.0
            else:
                delay = 3000.0
            try:
                yield env.timeout(delay)
            except Interrupted:
                trace.append(("intr", me, step, env.now))
                continue
            trace.append(("wake", me, step, env.now))
            if my_rng.random() < 0.1:
                gate = gates[my_rng.randrange(n_procs)]
                if not gate.triggered:
                    gate.succeed((me, step))

    def watcher(env, me):
        try:
            value = yield gates[me]
            trace.append(("gate", me, value, env.now))
        except Interrupted:
            trace.append(("gate-intr", me, env.now))

    procs = [env.process(proc(env, i)) for i in range(n_procs)]
    for i in range(n_procs):
        env.process(watcher(env, i))

    def chaos_monkey(env):
        while True:
            yield env.timeout(7.0 + rng.random() * 11.0)
            victim = procs[rng.randrange(n_procs)]
            if victim.is_alive:
                victim.interrupt("poke")

    env.process(chaos_monkey(env))
    env.run(until=horizon)
    trace.append(("events", env.events_processed))
    return trace


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_event_soup_streams_identical(seed, monkeypatch):
    calendar, heap = on_both_queues(monkeypatch, lambda: _soup_trace(seed))
    assert calendar == heap


def test_soup_with_step_and_peek_identical(monkeypatch):
    """Single-stepping interleaved with run() must also agree."""
    def stepped():
        env = Environment()
        log = []

        def ticker(env, period, tag):
            while True:
                yield env.timeout(period)
                log.append((tag, env.now))

        env.process(ticker(env, 0.05, "a"))    # exactly one bucket width
        env.process(ticker(env, 0.07, "b"))
        env.process(ticker(env, 1.0, "c"))
        for _ in range(200):
            log.append(("peek", env.peek()))
            env.step()
        env.run(until=30.0)
        log.append(("done", env.now, env.events_processed))
        return log

    calendar, heap = on_both_queues(monkeypatch, stepped)
    assert calendar == heap


def test_heap_oracle_is_patched_in(monkeypatch):
    """The cross-kernel comparisons above really ran two queues."""
    from tests.heap_queue import HeapQueue
    with monkeypatch.context() as patch:
        use_heap_queue(patch)
        assert isinstance(Environment()._cal, HeapQueue)
    assert not isinstance(Environment()._cal, HeapQueue)


@pytest.mark.parametrize("system", ["zk", "ezk"])
def test_protocol_workload_identical_across_kernels(system, monkeypatch):
    """A full ensemble workload produces the same result on both queues."""
    from repro.bench.workload import run_queue_workload

    calendar, heap = on_both_queues(monkeypatch, lambda: run_queue_workload(
        system, n_clients=8, warmup_ms=50.0, measure_ms=300.0))
    assert calendar == heap
