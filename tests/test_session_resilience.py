"""Session lifecycle end-to-end: fencing, reaping, reconnect, synthesis."""

import pytest

from repro.zk import SessionExpiredError, SessionState, ZkEnsemble
from repro.zk.txn import CloseSessionTxn
from repro.zk.watches import EventType


@pytest.fixture
def ensemble():
    ens = ZkEnsemble(n_replicas=3, seed=1)
    ens.start()
    return ens


def run(ensemble, *generators):
    procs = [ensemble.env.process(gen) for gen in generators]
    results = []
    for proc in procs:
        results.append(ensemble.env.run(until=proc))
    return results


def connected_client(ensemble, **kwargs):
    client = ensemble.client(**kwargs)

    def _connect():
        yield from client.connect()
        return client

    return run(ensemble, _connect())[0]


def run_until(ensemble, predicate, step_ms=50.0, limit_ms=15_000.0):
    env = ensemble.env
    deadline = env.now + limit_ms
    while not predicate() and env.now < deadline:
        env.run(until=env.now + step_ms)
    assert predicate(), f"condition never held by t={env.now:g}ms"


def committed_close_txns(leader, session_id):
    return [r for r in leader.zab.log
            if r.zxid <= leader.zab.committed_zxid
            and isinstance(r.txn, CloseSessionTxn)
            and r.txn.session_id == session_id]


class TestStateMachine:
    def test_suspend_then_reconnect_on_replica_crash(self, ensemble):
        client = connected_client(ensemble, replica="zk1")
        states = []
        client.session_listeners.append(states.append)

        def scenario():
            yield from client.create("/sm", b"v0")
            ensemble.server("zk1").crash()
            # Issued at the dead replica: must fail over, re-establish
            # the session elsewhere, and complete.
            stat = yield from client.set_data("/sm", b"v1")
            return stat.version

        assert run(ensemble, scenario())[0] == 1
        assert SessionState.SUSPENDED in states
        assert states.index(SessionState.SUSPENDED) < \
            len(states) - 1 - states[::-1].index(SessionState.CONNECTED)
        assert client.state is SessionState.CONNECTED

    def test_expired_is_terminal_client_side(self, ensemble):
        client = connected_client(ensemble, session_timeout_ms=1000.0)

        def scenario():
            yield from client.create("/t", b"v0")
            client.abandon()
            yield ensemble.env.timeout(3000.0)
            try:
                yield from client.set_data("/t", b"zombie")
            except SessionExpiredError:
                pass
            else:
                raise AssertionError("fence never answered")
            assert client.state is SessionState.EXPIRED
            # Once EXPIRED, calls fail locally without touching the wire.
            before = ensemble.env.now
            try:
                yield from client.set_data("/t", b"again")
            except SessionExpiredError:
                pass
            else:
                raise AssertionError("EXPIRED was not terminal")
            return ensemble.env.now - before

        assert run(ensemble, scenario())[0] == 0.0

    def test_non_resilient_client_is_refused(self, ensemble):
        with pytest.raises(ValueError):
            ensemble.client(resilient=False)


class TestExpiryFencing:
    def test_post_expiry_write_is_fenced(self, ensemble):
        client = connected_client(ensemble, session_timeout_ms=1000.0)

        def scenario():
            yield from client.create("/fenced", b"safe")
            client.abandon()
            yield ensemble.env.timeout(3000.0)
            try:
                yield from client.set_data("/fenced", b"zombie")
            except SessionExpiredError:
                return "fenced"
            return "applied"

        assert run(ensemble, scenario())[0] == "fenced"
        for server in ensemble.servers:
            if server._alive:
                assert server.tree.get_data("/fenced")[0] == b"safe"

    def test_fenced_pong_after_partition_expires_client(self, ensemble):
        """A client with no outstanding calls learns of its expiry from
        the fenced keep-alive pong once the partition heals."""
        client = connected_client(ensemble, session_timeout_ms=1000.0)
        sid = client.session_id
        ensemble.net.partition([client.node_id], ensemble.all_ids)
        run_until(ensemble, lambda: sid not in ensemble.leader.sessions)
        assert client.state is not SessionState.EXPIRED
        ensemble.net.heal()
        run_until(ensemble, lambda: client.state is SessionState.EXPIRED,
                  limit_ms=10_000.0)


class TestExactlyOnceReaping:
    def test_expiry_reaps_ephemerals_once(self, ensemble):
        client = connected_client(ensemble, session_timeout_ms=1000.0)
        sid = client.session_id

        def scenario():
            yield from client.create("/eph", b"", ephemeral=True)
            client.abandon()
            yield ensemble.env.timeout(3000.0)
            # Late explicit close: the session is already gone; the
            # duplicate close must be answered (swallowed client-side)
            # without reaping anything twice.
            yield from client.close()
            return True

        assert run(ensemble, scenario())[0] is True
        leader = ensemble.leader
        assert leader.tree.exists("/eph") is None
        assert len(committed_close_txns(leader, sid)) == 1
        assert ensemble.trees_consistent()

    def test_graceful_close_then_no_expiry_close(self, ensemble):
        client = connected_client(ensemble, session_timeout_ms=1000.0)
        sid = client.session_id

        def scenario():
            yield from client.create("/eph2", b"", ephemeral=True)
            yield from client.close()
            yield ensemble.env.timeout(3000.0)
            return True

        run(ensemble, scenario())
        leader = ensemble.leader
        assert leader.tree.exists("/eph2") is None
        # The expiry sweep must not issue a second close for a session
        # that closed gracefully.
        assert len(committed_close_txns(leader, sid)) == 1

    def test_expiry_races_leader_failover(self, ensemble):
        client = connected_client(ensemble, session_timeout_ms=1500.0)
        sid = client.session_id

        def scenario():
            yield from client.create("/racer", b"", ephemeral=True)
            client.abandon()
            yield ensemble.env.timeout(100.0)
            return True

        run(ensemble, scenario())
        ensemble.server("zk0").crash()   # the bootstrap leader
        run_until(ensemble, lambda: ensemble.leader is not None
                  and ensemble.leader.node_id != "zk0")
        t_elect = ensemble.env.now
        new_leader = ensemble.leader
        assert sid in new_leader.sessions

        # The new leader rebases expiry deadlines: sessions get a fresh
        # full timeout measured from *its* first healthy tick, so the
        # election gap alone can never expire anyone...
        ensemble.env.run(until=t_elect + 800.0)
        assert sid in new_leader.sessions
        assert new_leader.tree.exists("/racer") is not None

        # ...but an abandoned session still dies of silence soon after.
        run_until(ensemble, lambda: sid not in new_leader.sessions,
                  limit_ms=3000.0)
        run_until(ensemble,
                  lambda: new_leader.tree.exists("/racer") is None,
                  limit_ms=1000.0)
        assert len(committed_close_txns(new_leader, sid)) == 1


class TestWatchSynthesis:
    def test_missed_data_event_is_synthesized(self, ensemble):
        writer = connected_client(ensemble, replica="zk0")
        watcher = connected_client(ensemble, replica="zk1",
                                   session_timeout_ms=1500.0)

        def scenario():
            yield from writer.create("/w", b"v0")
            waiter = watcher.wait_for_event("/w")
            yield from watcher.get_data("/w", watch=True)
            # The replica holding the armed watch dies; the write lands
            # while the watcher is cut off. Reconnect must compare the
            # re-armed read's mzxid and synthesize the missed event.
            ensemble.server("zk1").crash()
            yield ensemble.env.timeout(50.0)
            yield from writer.set_data("/w", b"v1")
            note = yield from watcher.await_notification("/w", waiter)
            return note

        note = run(ensemble, scenario())[0]
        assert note is not None
        assert note.path == "/w"
        assert note.event_type == EventType.NODE_DATA_CHANGED.value
        assert watcher.state is SessionState.CONNECTED

    def test_missed_child_event_is_synthesized(self, ensemble):
        writer = connected_client(ensemble, replica="zk0")
        watcher = connected_client(ensemble, replica="zk1",
                                   session_timeout_ms=1500.0)

        def scenario():
            yield from writer.create("/parent", b"")
            waiter = watcher.wait_for_event("/parent")
            yield from watcher.get_children("/parent", watch=True)
            ensemble.server("zk1").crash()
            yield ensemble.env.timeout(50.0)
            yield from writer.create("/parent/kid", b"")
            note = yield from watcher.await_notification("/parent", waiter)
            return note

        note = run(ensemble, scenario())[0]
        assert note is not None
        assert note.path == "/parent"
        assert note.event_type == EventType.NODE_CHILDREN_CHANGED.value

    def test_rearmed_watch_still_fires_live(self, ensemble):
        """No event in the gap: the watch re-arms and fires on the next
        write after reconnect (not a spurious synthesized one)."""
        writer = connected_client(ensemble, replica="zk0")
        watcher = connected_client(ensemble, replica="zk1",
                                   session_timeout_ms=1500.0)
        states = []
        watcher.session_listeners.append(states.append)

        def scenario():
            yield from writer.create("/quiet", b"v0")
            waiter = watcher.wait_for_event("/quiet")
            yield from watcher.get_data("/quiet", watch=True)
            ensemble.server("zk1").crash()
            # Let the watcher notice and re-establish before any write.
            yield ensemble.env.timeout(2500.0)
            assert SessionState.CONNECTED in states
            assert not waiter.triggered   # nothing synthesized spuriously
            yield from writer.set_data("/quiet", b"v1")
            note = yield from watcher.await_notification("/quiet", waiter)
            return note

        note = run(ensemble, scenario())[0]
        assert note is not None
        assert note.event_type == EventType.NODE_DATA_CHANGED.value
