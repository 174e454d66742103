"""Replay determinism: the same (system, recipe, seed) cell, run twice,
produces a byte-identical operation history.

This is the property that makes a failing seed from the explorer
actionable: the printed replay line re-executes the *exact* run —
same fault times, same victim choices, same message drops, same
client interleavings — so the failure reproduces under a debugger.
"""

from __future__ import annotations

import pytest

from repro.chaos import random_schedule, run_chaos
from tests.heap_queue import use_heap_queue

CELLS = [("ezk", "queue", 17), ("ds", "counter", 5)]


@pytest.mark.parametrize("system,recipe,seed", CELLS)
def test_same_seed_replays_byte_identical(system, recipe, seed):
    first = run_chaos(system, recipe, seed)
    second = run_chaos(system, recipe, seed)
    assert first.schedule.describe() == second.schedule.describe()
    assert first.nemesis_log == second.nemesis_log
    assert first.history.canonical() == second.history.canonical()
    assert first.result == second.result


@pytest.mark.parametrize("system,recipe,seed", CELLS)
def test_replay_byte_identical_across_kernels(system, recipe, seed,
                                              monkeypatch):
    """Replay lines must not depend on the event-queue kernel.

    A seed found by the explorer under the calendar-queue kernel must
    reproduce under the heap oracle — otherwise a queue change would
    silently invalidate every recorded repro line.
    """
    cal = run_chaos(system, recipe, seed)
    use_heap_queue(monkeypatch)
    heap = run_chaos(system, recipe, seed)
    assert heap.schedule.describe() == cal.schedule.describe()
    assert heap.nemesis_log == cal.nemesis_log
    assert heap.history.canonical() == cal.history.canonical()
    assert heap.result == cal.result


RAFT_CELLS = [("zk", "queue", 17), ("ds", "counter", 5)]


@pytest.mark.parametrize("system,recipe,seed", RAFT_CELLS)
def test_raft_cells_replay_byte_identical(system, recipe, seed):
    """The Raft backend keeps the determinism contract: its election
    timeouts come from per-node RNGs seeded off the schedule seed, so a
    replayed cell reproduces the same elections, drops and histories."""
    first = run_chaos(system, recipe, seed, kernel="raft")
    second = run_chaos(system, recipe, seed, kernel="raft")
    assert first.schedule.describe() == second.schedule.describe()
    assert first.nemesis_log == second.nemesis_log
    assert first.history.canonical() == second.history.canonical()
    assert first.result == second.result
    assert first.repro.endswith("--kernel raft")


def test_schedule_generation_is_pure():
    a, b = random_schedule(42), random_schedule(42)
    assert a == b
    assert a.describe() == b.describe()
    assert random_schedule(43) != a
