"""Unit tests: expiry buckets, session-table snapshots, retry policy."""

import random

import pytest

from repro.core import DS_RETRY_POLICY, ZK_RETRY_POLICY, RetryPolicy
from repro.zk import ExpiryClock, SessionTable
from repro.zk.sessions import HeartbeatTracker


class TestExpiryClock:
    def test_expires_after_silence(self):
        clock = ExpiryClock(tick_ms=100.0)
        clock.track(1, 1000.0, now=0.0)
        assert clock.expired(900.0) == []
        assert clock.expired(1000.0) == []      # strict: now - seen > timeout
        assert clock.expired(1000.1) == [1]

    def test_touch_postpones(self):
        clock = ExpiryClock(tick_ms=100.0)
        clock.track(1, 1000.0, now=0.0)
        clock.touch(1, now=800.0)
        assert clock.expired(1500.0) == []
        assert clock.expired(1801.0) == [1]

    def test_touch_of_untracked_is_noop(self):
        clock = ExpiryClock()
        clock.touch(9, now=50.0)
        assert len(clock) == 0
        assert clock.expired(10_000.0) == []

    def test_forget_removes(self):
        clock = ExpiryClock(tick_ms=100.0)
        clock.track(1, 500.0, now=0.0)
        clock.forget(1)
        assert clock.expired(5000.0) == []
        assert len(clock) == 0

    def test_rebase_grants_fresh_timeout(self):
        clock = ExpiryClock(tick_ms=100.0)
        clock.track(1, 1000.0, now=0.0)
        clock.track(2, 400.0, now=0.0)
        # Both would be long overdue; a rebase at 5000 restarts them.
        clock.rebase(now=5000.0)
        assert clock.expired(5400.0) == []
        assert clock.expired(5401.0) == [2]
        assert clock.expired(6001.0) == [1, 2]

    def test_stale_bucket_entries_are_lazy_deleted(self):
        clock = ExpiryClock(tick_ms=100.0)
        clock.track(1, 300.0, now=0.0)
        for t in range(10):                    # 10 touches, 10 stale entries
            clock.touch(1, now=float(t * 10))
        assert clock.expired(350.0) == []      # sweeps discard stale entries
        assert clock.expired(391.0) == [1]     # last touch at 90 + 300

    def test_tick_must_be_positive(self):
        with pytest.raises(ValueError):
            ExpiryClock(tick_ms=0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_equivalent_to_naive_scan(self, seed):
        """Bucketing must never change *which* sessions a sweep reports."""
        rng = random.Random(f"expiry-equiv-{seed}")
        clock = ExpiryClock(tick_ms=rng.choice([50.0, 100.0, 130.0]))
        naive = HeartbeatTracker()
        now = 0.0
        live = set()
        for _ in range(400):
            now += rng.uniform(1.0, 120.0)     # sweeps at arbitrary times
            op = rng.random()
            sid = rng.randrange(1, 25)
            if op < 0.35:
                timeout = rng.choice([200.0, 500.0, 1000.0, 1700.0])
                clock.track(sid, timeout, now)
                naive.track(sid, timeout, now)
                live.add(sid)
            elif op < 0.6 and live:
                victim = rng.choice(sorted(live))
                clock.touch(victim, now)
                naive.touch(victim, now)
            elif op < 0.7 and live:
                victim = rng.choice(sorted(live))
                clock.forget(victim)
                naive.forget(victim)
                live.discard(victim)
            else:
                expired = clock.expired(now)
                assert expired == naive.expired(now), f"diverged at t={now}"
                for victim in expired:         # reap, as the server does
                    clock.forget(victim)
                    naive.forget(victim)
                    live.discard(victim)


class TestSessionTableSnapshot:
    def test_round_trip_preserves_open_and_closed(self):
        table = SessionTable()
        table.create(10, 2000.0, "alice")
        table.create(11, 4000.0, "bob")
        table.create(12, 1000.0, "carol")
        table.close(11)
        snap = table.snapshot()

        restored = SessionTable()
        restored.restore(snap)
        assert restored.ids() == [10, 12]
        assert restored.get(10).timeout_ms == 2000.0
        assert restored.get(12).client_id == "carol"
        assert restored.is_closed(11)
        assert not restored.is_closed(10)
        # The copy's closed-set keeps fencing decisions identical.
        assert restored.snapshot() == snap

    def test_close_of_unknown_session_records_nothing(self):
        table = SessionTable()
        assert table.close(99) is None
        assert not table.is_closed(99)

    def test_closed_ids_survive_churn(self):
        table = SessionTable()
        for sid in range(1, 8):
            table.create(sid, 1000.0)
        for sid in (2, 4, 6):
            table.close(sid)
        assert sorted(table.snapshot()["closed"]) == [2, 4, 6]
        assert len(table) == 4


class TestRetryPolicy:
    def test_zk_policy_matches_historical_inline_backoff(self):
        """Draw-for-draw identical to the old hand-rolled client loop."""
        node = "n1"
        rng = random.Random(f"zkclient-backoff-{node}")

        def old_delay(retries: int) -> float:
            delay = min(800.0, 50.0 * (2 ** retries))
            if retries > 0:
                delay *= 0.5 + rng.random()
            return delay

        backoff = ZK_RETRY_POLICY.start(f"zkclient-backoff-{node}")
        # Interleave attempt counters as two separate _call loops would.
        for attempt in [0, 1, 2, 3, 4, 0, 0, 1, 5, 2]:
            assert backoff.delay(attempt) == old_delay(attempt)

    def test_first_attempt_consumes_no_randomness(self):
        a = ZK_RETRY_POLICY.start("seed-a")
        b = ZK_RETRY_POLICY.start("seed-a")
        assert a.delay(0) == 50.0
        assert a.delay(0) == 50.0
        # a drew nothing for attempt 0, so a and b still agree.
        assert a.delay(3) == b.delay(3)

    def test_raw_delay_caps(self):
        assert ZK_RETRY_POLICY.raw_delay_ms(0) == 50.0
        assert ZK_RETRY_POLICY.raw_delay_ms(3) == 400.0
        assert ZK_RETRY_POLICY.raw_delay_ms(10) == 800.0

    def test_ds_policy_is_the_historical_fixed_timer(self):
        backoff = DS_RETRY_POLICY.start("dsclient-backoff-c0")
        assert [backoff.delay(n) for n in range(6)] == [1000.0] * 6

    def test_jitter_bounds(self):
        backoff = RetryPolicy(100.0, 1600.0, 2.0, True).start("bounds")
        for attempt in range(1, 9):
            raw = min(1600.0, 100.0 * 2 ** attempt)
            delay = backoff.delay(attempt)
            assert 0.5 * raw <= delay < 1.5 * raw
