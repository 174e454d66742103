"""Protocol-level unit tests for the Zab-like broadcast.

These drive :class:`ZabPeer` instances directly over a simulated
network (no servers on top) so commit rules, epoch filtering, and
recovery behaviour are observable in isolation.
"""

import pytest

from repro.sim import Environment, LatencyModel, Network
from repro.zk.txn import SetDataTxn
from repro.zk.zab import (NewLeader, NotLeaderError, Role, ZabConfig,
                          ZabPeer, make_zxid, zxid_counter, zxid_epoch)


def build_cluster(n=3, heartbeat=20.0, election=80.0, window=30.0):
    env = Environment()
    net = Network(env, latency=LatencyModel(jitter_ms=0.0), seed=5)
    ids = [f"p{i}" for i in range(n)]
    delivered = {node: [] for node in ids}
    peers = {}

    for node in ids:
        def make_send(node=node):
            return lambda dst, msg: net.send(node, dst, msg)

        def make_deliver(node=node):
            return lambda record: delivered[node].append(record)

        peer = ZabPeer(env, node, ids, send=make_send(),
                       deliver=make_deliver(),
                       config=ZabConfig(heartbeat_ms=heartbeat,
                                        election_timeout_ms=election,
                                        election_window_ms=window))
        peers[node] = peer

        def make_handler(peer=peer):
            return lambda src, msg: peer.handle(src, msg)

        net.register(node, make_handler())

    for peer in peers.values():
        peer.bootstrap("p0")
    return env, net, peers, delivered


def assert_exactly_once_in_order(delivered, expect_payloads):
    """Every replica delivered exactly ``expect_payloads``, in zxid order."""
    for node, log in delivered.items():
        zxids = [r.zxid for r in log]
        assert zxids == sorted(zxids), f"{node}: delivery out of zxid order"
        assert len(set(zxids)) == len(zxids), f"{node}: duplicate delivery"
        assert [r.txn.data for r in log] == expect_payloads, node


class TestZxid:
    def test_round_trip(self):
        zxid = make_zxid(3, 17)
        assert zxid_epoch(zxid) == 3
        assert zxid_counter(zxid) == 17

    def test_later_epoch_always_larger(self):
        assert make_zxid(2, 1) > make_zxid(1, 0xFFFFFFFF)


class TestReplication:
    def test_propose_commits_everywhere(self):
        env, _net, peers, delivered = build_cluster()
        peers["p0"].propose(SetDataTxn("/a", b"1"))
        env.run(until=50.0)
        for node, log in delivered.items():
            assert [r.txn.data for r in log] == [b"1"], node

    def test_delivery_order_matches_proposal_order(self):
        env, _net, peers, delivered = build_cluster()
        for i in range(10):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=100.0)
        for log in delivered.values():
            assert [r.txn.data for r in log] == [
                str(i).encode() for i in range(10)]
            zxids = [r.zxid for r in log]
            assert zxids == sorted(zxids)

    def test_only_leader_may_propose(self):
        _env, _net, peers, _delivered = build_cluster()
        with pytest.raises(NotLeaderError):
            peers["p1"].propose(SetDataTxn("/a", b"x"))

    def test_commit_requires_quorum(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p1")
        net.crash("p2")
        peers["p0"].propose(SetDataTxn("/a", b"x"))
        env.run(until=60.0)
        assert delivered["p0"] == []  # no majority ack -> no commit

    def test_commit_with_one_follower_down(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p2")
        peers["p0"].propose(SetDataTxn("/a", b"x"))
        env.run(until=60.0)
        assert len(delivered["p0"]) == 1
        assert len(delivered["p1"]) == 1

    def test_exactly_once_delivery(self):
        env, _net, peers, delivered = build_cluster()
        for i in range(5):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=200.0)  # heartbeats re-announce the commit point
        for log in delivered.values():
            assert len(log) == 5

    def test_exactly_once_in_zxid_order(self):
        env, _net, peers, delivered = build_cluster()
        payloads = [str(i).encode() for i in range(25)]
        for p in payloads:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=300.0)
        assert_exactly_once_in_order(delivered, payloads)


class TestElection:
    def test_leader_crash_elects_highest_zxid(self):
        env, net, peers, delivered = build_cluster()
        peers["p0"].propose(SetDataTxn("/a", b"1"))
        env.run(until=50.0)
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        leaders = [p for p in peers.values() if p.is_leader]
        assert len(leaders) == 1
        assert leaders[0].node_id != "p0"
        assert leaders[0].epoch > 1

    def test_new_leader_can_propose(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        leader = next(p for p in peers.values() if p.is_leader)
        leader.propose(SetDataTxn("/b", b"post-failover"))
        env.run(until=env.now + 50.0)
        for node in peers:
            if node == "p0":
                continue
            assert delivered[node][-1].txn.data == b"post-failover"

    def test_committed_entries_survive_failover(self):
        env, net, peers, delivered = build_cluster()
        for i in range(5):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=50.0)
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        leader = next(p for p in peers.values() if p.is_leader)
        assert len(leader.log) >= 5
        assert leader.committed_zxid >= make_zxid(1, 5)

    def test_recovered_old_leader_rejoins_as_follower(self):
        env, net, peers, delivered = build_cluster()
        peers["p0"].propose(SetDataTxn("/a", b"old"))
        env.run(until=50.0)
        net.crash("p0")
        peers["p0"].crash()
        env.run(until=800.0)
        net.recover("p0")
        peers["p0"].recover()
        env.run(until=env.now + 600.0)
        assert peers["p0"].role is Role.FOLLOWER
        leader = next(p for p in peers.values() if p.is_leader)
        assert leader.node_id != "p0"

    def test_recovered_follower_catches_up_via_sync(self):
        env, net, peers, delivered = build_cluster()
        net.crash("p2")
        peers["p2"].crash()
        for i in range(4):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=80.0)
        net.recover("p2")
        peers["p2"].recover()
        env.run(until=env.now + 600.0)
        assert len(delivered["p2"]) == 4

    def test_no_election_while_leader_healthy(self):
        env, _net, peers, _delivered = build_cluster()
        env.run(until=1000.0)
        assert peers["p0"].is_leader
        assert peers["p0"].epoch == 1  # nobody bumped the epoch

    def test_stale_leader_demoted_on_higher_epoch_heartbeat(self):
        env, net, peers, _delivered = build_cluster()
        # Partition the leader away; the others elect.
        net.partition(["p0"], ["p1", "p2"])
        env.run(until=800.0)
        new_leader = next(
            p for p in peers.values() if p.is_leader and p.node_id != "p0")
        net.heal()
        env.run(until=env.now + 300.0)
        assert peers["p0"].role is Role.FOLLOWER
        assert peers["p0"].epoch == new_leader.epoch


class TestFailoverResync:
    def test_leader_crash_with_uncommitted_proposal(self):
        """A record only the crashed leader logged never reappears.

        A partition holds the record back, so it sits in p0's durable
        log without reaching a quorum. Committed entries survive, the
        survivors stay consistent, and a new leader makes progress.
        """
        env, net, peers, delivered = build_cluster()
        for i in range(3):
            peers["p0"].propose(SetDataTxn("/a", str(i).encode()))
        env.run(until=200.0)
        committed = [str(i).encode() for i in range(3)]
        assert_exactly_once_in_order(delivered, committed)
        net.partition(["p0"], ["p1", "p2"])
        peers["p0"].propose(SetDataTxn("/a", b"stranded"))
        env.run(until=env.now + 1.0)
        net.crash("p0")
        peers["p0"].crash()
        net.heal()
        env.run(until=env.now + 800.0)
        leaders = [p for p in peers.values() if p.is_leader]
        assert len(leaders) == 1 and leaders[0].node_id != "p0"
        leaders[0].propose(SetDataTxn("/b", b"post-failover"))
        env.run(until=env.now + 100.0)
        for node in ("p1", "p2"):
            log = delivered[node]
            zxids = [r.zxid for r in log]
            assert zxids == sorted(zxids)
            assert len(set(zxids)) == len(zxids)
            assert [r.txn.data for r in log[:3]] == committed
            assert log[-1].txn.data == b"post-failover"
            assert all(r.txn.data != b"stranded" for r in log)

    def test_healed_partition_resyncs(self):
        """A follower partitioned through many proposals catches up."""
        env, net, peers, delivered = build_cluster()
        env.run(until=30.0)
        net.partition(["p2"], ["p0", "p1"])
        payloads = [str(i).encode() for i in range(24)]
        for p in payloads:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=env.now + 100.0)
        assert delivered["p2"] == []
        net.heal()
        # p0 kept a quorum, so it stays leader; heartbeats and a
        # SyncRequest bring p2 back without a new election.
        env.run(until=env.now + 600.0)
        assert peers["p0"].is_leader
        assert peers["p2"].role is Role.FOLLOWER
        assert_exactly_once_in_order(delivered, payloads)

    def test_recovered_follower_syncs_suffix_only(self):
        """The rejoining follower receives the missing suffix, not the
        whole log, and still delivers every entry exactly once."""
        env, net, peers, delivered = build_cluster()
        pre = [str(i).encode() for i in range(6)]
        for p in pre:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=100.0)
        net.crash("p2")
        peers["p2"].crash()
        post = [f"x{i}".encode() for i in range(6)]
        for p in post:
            peers["p0"].propose(SetDataTxn("/a", p))
        env.run(until=env.now + 100.0)
        syncs = []
        handle = peers["p2"].handle

        def recording_handle(src, msg):
            if isinstance(msg, NewLeader):
                syncs.append(msg)
            return handle(src, msg)

        peers["p2"].handle = recording_handle
        net.recover("p2")
        peers["p2"].recover()
        env.run(until=env.now + 600.0)
        assert_exactly_once_in_order(delivered, pre + post)
        assert syncs
        assert all(msg.prefix_zxid == make_zxid(1, len(pre))
                   and len(msg.log) == len(post) for msg in syncs)

    def test_stale_epoch_proposal_never_delivered(self):
        """A deposed leader's proposal is truncated, never delivered."""
        env, net, peers, delivered = build_cluster()
        env.run(until=30.0)
        net.partition(["p0"], ["p1", "p2"])
        peers["p0"].propose(SetDataTxn("/a", b"doomed"))
        env.run(until=800.0)  # the majority side elects a new leader
        net.heal()
        env.run(until=env.now + 400.0)
        new_leader = next(p for p in peers.values() if p.is_leader)
        assert new_leader.node_id != "p0"
        new_leader.propose(SetDataTxn("/b", b"kept"))
        env.run(until=env.now + 100.0)
        for log in delivered.values():
            assert all(r.txn.data != b"doomed" for r in log)
        assert delivered["p1"][-1].txn.data == b"kept"
        assert delivered["p0"][-1].txn.data == b"kept"


class TestEpochFiltering:
    def test_old_epoch_proposals_ignored(self):
        env, net, peers, delivered = build_cluster()
        net.partition(["p0"], ["p1", "p2"])
        # The isolated old leader keeps proposing into the void.
        peers["p0"].propose(SetDataTxn("/a", b"doomed"))
        env.run(until=800.0)
        net.heal()
        env.run(until=env.now + 400.0)
        new_leader = next(p for p in peers.values() if p.is_leader)
        new_leader.propose(SetDataTxn("/b", b"kept"))
        env.run(until=env.now + 100.0)
        # The uncommitted 'doomed' entry never reaches anyone's delivery.
        for log in delivered.values():
            assert all(r.txn.data != b"doomed" for r in log)
        assert delivered["p1"][-1].txn.data == b"kept"
