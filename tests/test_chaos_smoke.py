"""Chaos smoke: one seeded fault schedule per matrix cell.

Every recipe × system cell runs one full chaos cycle — seeded fault
schedule, recorded history, checker verdict — so a regression in any
backend's fault handling fails tier-1 immediately. The failure message
carries the exact replay command line. The full 25-seed explorer lives
in ``test_chaos_explorer.py`` behind ``CHAOS_FULL=1``.
"""

from __future__ import annotations

import pytest

from repro.chaos import RECIPES, run_chaos

SYSTEMS = ("zk", "ezk", "ds", "eds")
SMOKE_SEED = 3


@pytest.mark.parametrize("recipe", RECIPES)
@pytest.mark.parametrize("system", SYSTEMS)
def test_chaos_smoke_cell(system, recipe):
    run = run_chaos(system, recipe, SMOKE_SEED)
    assert run.ok, (
        f"{system}/{recipe} seed {SMOKE_SEED}: {run.result.reason}\n"
        f"replay: {run.repro}\n"
        f"schedule:\n{run.schedule.describe()}\n"
        f"nemesis log:\n" + "\n".join(run.nemesis_log)
    )


@pytest.mark.parametrize("system,recipe", [("zk", "counter"), ("ds", "queue")])
def test_chaos_smoke_cell_raft(system, recipe):
    """The kernel axis: one cell per family over the Raft backend."""
    run = run_chaos(system, recipe, SMOKE_SEED, kernel="raft")
    assert run.ok, (
        f"{system}/{recipe} seed {SMOKE_SEED} kernel=raft: "
        f"{run.result.reason}\n"
        f"replay: {run.repro}\n"
        f"schedule:\n{run.schedule.describe()}\n"
        f"nemesis log:\n" + "\n".join(run.nemesis_log)
    )


@pytest.mark.parametrize("system,recipe,seed", [("zk", "barrier", 9)])
def test_chaos_regression_seed(system, recipe, seed):
    """Seeds that once failed, pinned by their one-line replay.

    zk/barrier seed 9: two clients' ``create /ready/2`` failed with
    connection loss during a drop burst, ``ensure_object`` swallowed
    the error, both counted the round as released, and the third
    client blocked on a ready node that never existed.
    """
    run = run_chaos(system, recipe, seed)
    assert run.ok, (
        f"{system}/{recipe} seed {seed}: {run.result.reason}\n"
        f"replay: {run.repro}"
    )
