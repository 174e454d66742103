"""Chaos checker tests: unit histories plus a live end-to-end "teeth" test.

The unit tests feed hand-built histories to each checker and assert
that genuine violations are flagged while in-doubt operations widen
the allowed envelope instead of producing false alarms.

The teeth test seeds a real consistency bug — a follower that serves
reads without the session-consistency zxid parking — into a running
ensemble and shows the counter checker catches the stale read, with a
control run proving the unbroken server passes the same workload.
"""

from __future__ import annotations

import pytest

from repro.bench.systems import make_chaos_ensemble
from repro.chaos import (CounterModel, History, OpRecord, RecordingCoord,
                         RegisterModel, check_barrier_history,
                         check_counter_history, check_election_history,
                         check_linearizable, check_queue_history)
from repro.recipes import ZkCoordClient
from repro.recipes.counter import TraditionalSharedCounter
from repro.zk.server import ZkServer


def op(proc, name, arg=None, status="ok", result=None, t0=0.0, t1=1.0,
       key=""):
    return OpRecord(proc, name, key, arg, status, result, t0, t1)


# ---------------------------------------------------------------------------
# counter invariants
# ---------------------------------------------------------------------------


def test_counter_accepts_clean_history():
    ops = [op("c0", "inc", result=1), op("c1", "inc", result=2),
           op("c0", "final-read", result=2)]
    assert check_counter_history(ops).ok


def test_counter_flags_duplicate_results():
    ops = [op("c0", "inc", result=1), op("c1", "inc", result=1),
           op("c0", "final-read", result=2)]
    verdict = check_counter_history(ops)
    assert not verdict.ok and "duplicate" in verdict.reason


def test_counter_flags_lost_increment():
    ops = [op("c0", "inc", result=1), op("c1", "inc", result=2),
           op("c0", "final-read", result=1)]
    verdict = check_counter_history(ops)
    assert not verdict.ok


def test_counter_in_doubt_widens_envelope():
    # One inc's reply was lost: final may be 1 or 2, never 3.
    base = [op("c0", "inc", result=1),
            op("c1", "inc", status="fail", result=None)]
    assert check_counter_history(base + [op("c0", "final-read",
                                            result=1)]).ok
    assert check_counter_history(base + [op("c0", "final-read",
                                            result=2)]).ok
    assert not check_counter_history(base + [op("c0", "final-read",
                                                result=3)]).ok


# ---------------------------------------------------------------------------
# queue invariants
# ---------------------------------------------------------------------------


def test_queue_accepts_clean_history():
    ops = [op("c0", "add", arg=b"a"), op("c1", "add", arg=b"b"),
           op("c0", "remove", result=b"a"),
           op("c1", "drain-remove", result=b"b")]
    assert check_queue_history(ops).ok


def test_queue_flags_double_dequeue():
    ops = [op("c0", "add", arg=b"a"),
           op("c0", "remove", result=b"a"),
           op("c1", "remove", result=b"a")]
    verdict = check_queue_history(ops)
    assert not verdict.ok and "more times" in verdict.reason


def test_queue_in_doubt_add_excuses_double_dequeue():
    # The first add attempt timed out but landed anyway; its retry
    # enqueued a second copy — dequeuing both is legitimate, a third
    # dequeue is not.
    ops = [op("c0", "add", arg=b"a", status="fail"),
           op("c0", "add", arg=b"a"),
           op("c1", "remove", result=b"a"),
           op("c2", "remove", result=b"a")]
    assert check_queue_history(ops).ok
    ops.append(op("c0", "drain-remove", result=b"a"))
    assert not check_queue_history(ops).ok


def test_queue_flags_invented_element():
    ops = [op("c0", "add", arg=b"a"), op("c0", "remove", result=b"ghost")]
    verdict = check_queue_history(ops)
    assert not verdict.ok and "never added" in verdict.reason


def test_queue_flags_lost_element():
    ops = [op("c0", "add", arg=b"a"), op("c1", "add", arg=b"b"),
           op("c0", "drain-remove", result=b"a")]
    verdict = check_queue_history(ops)
    assert not verdict.ok and "lost" in verdict.reason


def test_queue_in_doubt_remove_excuses_missing_element():
    # The remove that consumed b"b" never got its reply back.
    ops = [op("c0", "add", arg=b"a"), op("c1", "add", arg=b"b"),
           op("c0", "remove", result=b"a"),
           op("c1", "remove", status="fail", result=None)]
    assert check_queue_history(ops).ok


# ---------------------------------------------------------------------------
# barrier / election invariants
# ---------------------------------------------------------------------------


def test_barrier_accepts_gated_round():
    ops = [op("c0", "enter", key="0", t0=0.0, t1=5.0),
           op("c1", "enter", key="0", t0=1.0, t1=5.1),
           op("c2", "enter", key="0", t0=2.0, t1=5.2)]
    assert check_barrier_history(ops, threshold=3).ok


def test_barrier_flags_early_release():
    # c0 passed at t=1.5, before the third arrival at t=2.0.
    ops = [op("c0", "enter", key="0", t0=0.0, t1=1.5),
           op("c1", "enter", key="0", t0=1.0, t1=5.1),
           op("c2", "enter", key="0", t0=2.0, t1=5.2)]
    verdict = check_barrier_history(ops, threshold=3)
    assert not verdict.ok and "before" in verdict.reason


def test_election_accepts_sequential_reigns():
    ops = [op("c0", "lead", t0=0.0, t1=1.0),
           op("c0", "abdicate", t0=5.0, t1=6.0),
           op("c1", "lead", t0=5.5, t1=7.0),
           op("c1", "abdicate", t0=9.0, t1=9.5)]
    assert check_election_history(ops).ok


def test_election_flags_overlapping_reigns():
    ops = [op("c0", "lead", t0=0.0, t1=1.0),
           op("c1", "lead", t0=2.0, t1=3.0),
           op("c0", "abdicate", t0=5.0, t1=6.0),
           op("c1", "abdicate", t0=7.0, t1=8.0)]
    verdict = check_election_history(ops)
    assert not verdict.ok and "overlap" in verdict.reason


# ---------------------------------------------------------------------------
# Wing & Gong linearizability
# ---------------------------------------------------------------------------


def test_linearizable_register_accepts_concurrent_overlap():
    # The read overlaps the write, so either result is linearizable.
    ops = [op("c0", "write", arg=1, t0=0.0, t1=10.0),
           op("c1", "read", result=1, t0=5.0, t1=6.0)]
    assert check_linearizable(ops, RegisterModel()).ok


def test_linearizable_register_rejects_stale_read():
    # The write returned before the read was invoked: no legal order.
    ops = [op("c0", "write", arg=1, t0=0.0, t1=1.0),
           op("c1", "read", result=None, t0=2.0, t1=3.0)]
    verdict = check_linearizable(ops, RegisterModel())
    assert not verdict.ok


def test_linearizable_counter_places_or_drops_in_doubt():
    # The failed inc may or may not have landed: both reads are legal.
    ops = [op("c0", "inc", result=1, t0=0.0, t1=1.0),
           op("c1", "inc", status="fail", t0=0.5, t1=2.0),
           op("c0", "read", result=2, t0=3.0, t1=4.0)]
    assert check_linearizable(ops, CounterModel()).ok
    ops[-1] = op("c0", "read", result=1, t0=3.0, t1=4.0)
    assert check_linearizable(ops, CounterModel()).ok
    ops[-1] = op("c0", "read", result=3, t0=3.0, t1=4.0)
    assert not check_linearizable(ops, CounterModel()).ok


# ---------------------------------------------------------------------------
# teeth: the checker catches a seeded server bug end-to-end
# ---------------------------------------------------------------------------


def _counter_run_with_lagging_follower(skip_parking: bool) -> object:
    """Increment on one client, lag another client's follower, read.

    With the session-consistency read parking intact the final read
    parks until the follower applies the synced zxid; with parking
    skipped the follower serves its stale state and the checker must
    flag the run.
    """
    ensemble, raw = make_chaos_ensemble("zk", seed=5)
    env = ensemble.env
    history = History()
    coords = [RecordingCoord(ZkCoordClient(c), history, f"c{i}", env)
              for i, c in enumerate(raw)]
    counter0 = TraditionalSharedCounter(coords[0])
    counter1 = TraditionalSharedCounter(coords[1])

    if skip_parking:
        def broken_read(self, meta, op_, last_zxid=0, wants_lease=False):
            self.local_sessions[meta.session_id] = meta.client_node
            self._submit_read(meta, op_)
        original = ZkServer._handle_read
        ZkServer._handle_read = broken_read
    try:
        def writer():
            yield from counter0.setup()
            for _ in range(4):
                yield from coords[0].mark("inc", "/ctr", None,
                                          counter0.increment())
                yield env.timeout(20.0)
            # Lag replication to c1's follower, then land one more
            # increment the follower will not have applied yet.
            ensemble.net.add_delay_rule(
                1500.0, msg_types=("Proposal", "Commit"),
                dst=frozenset({raw[1].replica}))
            yield from coords[0].mark("inc", "/ctr", None,
                                      counter0.increment())

        proc = env.process(writer())
        env.run(until=proc)

        def reader():
            yield from raw[1].sync()
            yield from coords[1].mark("final-read", "/ctr", None,
                                      counter1.read())

        proc = env.process(reader())
        env.run(until=proc)
    finally:
        if skip_parking:
            ZkServer._handle_read = original
    return check_counter_history(history.ops())


def test_checker_catches_skipped_read_parking():
    verdict = _counter_run_with_lagging_follower(skip_parking=True)
    assert not verdict.ok, \
        "checker failed to flag a follower serving stale reads"


@pytest.mark.parametrize("skip", [False])
def test_checker_control_run_passes(skip):
    verdict = _counter_run_with_lagging_follower(skip_parking=skip)
    assert verdict.ok, verdict.reason
