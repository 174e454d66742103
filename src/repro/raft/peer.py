"""A Raft peer implementing the :class:`AtomicBroadcast` contract.

The standard algorithm (Ongaro & Ousterhout), with the pieces the
conformance suite exercises:

* **leader election with randomized timeouts** — every follower draws
  its election timeout from a per-node seeded RNG, so elections stay
  deterministic per (config seed, node id) while still de-synchronizing
  candidacies;
* **pre-vote** — a follower first runs a non-binding poll at
  ``term + 1``; peers grant it only if they have not heard from a live
  leader recently and the candidate's log is up to date. Real terms are
  only bumped once a quorum would elect us, so a replica flapping in
  and out of partitions cannot inflate terms and depose healthy leaders
  (the churn-survival property the chaos matrix leans on);
* **log matching** — AppendEntries carries ``(prev_index, prev_term)``;
  a follower accepts only on an exact match, truncates a conflicting
  uncommitted suffix, and otherwise replies with a hint so the leader
  walks ``next_index`` back;
* **commit-index advancement** — the leader commits the highest index
  replicated on a quorum of voters *whose entry is from the current
  term* (figure 8 rule); followers advance to
  ``min(leader_commit, matched)``;
* **InstallSnapshot** — the leader compacts its shippable log at the
  commit point every ``snapshot_threshold`` entries; a follower too far
  behind receives the whole compacted prefix as one snapshot message
  (the delivery watermark survives the wholesale swap, exactly like a
  Zab full sync) and rejoins the AppendEntries flow at its edge.

Zxid mapping: an entry at global log index ``i`` appended in term ``t``
is stamped ``make_zxid(t, i)``. Terms never decrease along the log and
indexes strictly increase, so stamps are strictly increasing and the
tree server's bisect-by-zxid machinery works unchanged.

Like Zab, a freshly elected leader must not serve until its history is
authoritative: it proposes a **no-op barrier entry** for its term
(``noop_txn``) and reports ``is_leader`` only once that entry commits —
which, by the figure 8 rule, is also the moment every inherited entry
is committed. Durable state (term, vote, log, commit and delivery
pointers) survives ``crash()``, modelling an fsync'd log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set

from ..core.broadcast import (AtomicBroadcast, NotLeaderError, make_zxid)
from ..sim import Environment

__all__ = ["RaftConfig", "RaftPeer", "RaftRole", "RaftEntry", "RaftRecord",
           "RequestVote", "VoteReply", "AppendEntries", "AppendReply",
           "InstallSnapshot", "SnapshotReply"]


class RaftRole(str, Enum):
    FOLLOWER = "FOLLOWER"
    CANDIDATE = "CANDIDATE"
    LEADER = "LEADER"


@dataclass
class RaftConfig:
    heartbeat_ms: float = 50.0
    #: election timeout drawn uniformly from [min, max) per attempt.
    election_timeout_min_ms: float = 250.0
    election_timeout_max_ms: float = 500.0
    #: compact the shippable log at the commit point once it trails by
    #: this many entries; laggards then catch up via InstallSnapshot.
    #: 0 disables compaction (suffix backfill only).
    snapshot_threshold: int = 128
    #: run the pre-vote phase before bumping the real term.
    pre_vote: bool = True
    #: seed for the per-node election-timeout RNG.
    seed: int = 0


@dataclass
class RaftRecord:
    """Default record shape when no ``record_factory`` is injected."""

    zxid: int
    txn: object
    meta: object = None


@dataclass
class RaftEntry:
    term: int
    record: object


# -- protocol messages --------------------------------------------------------

@dataclass
class RequestVote:
    term: int
    candidate_id: str
    last_log_index: int
    last_log_term: int
    pre_vote: bool = False


@dataclass
class VoteReply:
    #: the term the request asked about (echoed back).
    term: int
    #: the responder's own current term (steps stale candidates down).
    responder_term: int
    voter_id: str
    granted: bool
    pre_vote: bool = False


@dataclass
class AppendEntries:
    term: int
    leader_id: str
    prev_index: int
    prev_term: int
    entries: List[RaftEntry] = field(default_factory=list)
    leader_commit: int = 0


@dataclass
class AppendReply:
    term: int
    follower_id: str
    success: bool
    #: on success: highest index now known matched.
    match_index: int = 0
    #: on failure: the follower's best guess at where logs agree.
    hint_index: int = 0


@dataclass
class InstallSnapshot:
    """The leader's compacted prefix, shipped wholesale.

    The receiver replaces its log prefix with ``entries`` (global
    indexes ``1..last_index``); its delivery watermark — which can only
    point inside the committed, hence agreed, prefix — carries over.
    """

    term: int
    leader_id: str
    last_index: int
    entries: List[RaftEntry]
    leader_commit: int


@dataclass
class SnapshotReply:
    term: int
    follower_id: str
    last_index: int


class RaftPeer(AtomicBroadcast):
    """One replica's endpoint of the Raft protocol."""

    metric_prefix = "raft"

    def __init__(self, env: Environment, node_id: str, peer_ids: List[str],
                 send: Callable[[str, object], None],
                 deliver: Callable[[object], None],
                 config: Optional[RaftConfig] = None,
                 observer_ids: Optional[List[str]] = None,
                 is_observer: bool = False,
                 send_many: Optional[
                     Callable[[List[str], object], None]] = None,
                 record_factory: Optional[Callable] = None,
                 noop_txn: Optional[Callable[[], object]] = None):
        self.env = env
        self.node_id = node_id
        #: voting members other than us (for an observer: all voters).
        self.peer_ids = [p for p in peer_ids if p != node_id]
        self.n = len(peer_ids)
        self.quorum = self.n // 2 + 1
        self.observer_ids = [o for o in (observer_ids or []) if o != node_id]
        self._voter_set = frozenset(self.peer_ids)
        self.is_observer = is_observer
        self._send = send
        self._send_many = send_many
        self._deliver = deliver
        self.config = config or RaftConfig()
        self._record = record_factory or (
            lambda zxid, txn, meta: RaftRecord(zxid, txn, meta))
        self._noop_txn = noop_txn

        # durable state (survives crash(): an fsync'd log)
        self.current_term = 0
        self.voted_for: Optional[str] = None
        self._entries: List[RaftEntry] = []       # global index i = [i-1]
        self.commit_index = 0
        self.committed_zxid = 0
        self._delivered_upto = 0                  # count of delivered entries

        # volatile
        self.role = RaftRole.FOLLOWER
        self.leader_id: Optional[str] = None
        self._established = False
        self._noop_index = 0
        #: leader bookkeeping, per learner (voters + observers).
        self._next_index: Dict[str, int] = {}
        self._match_index: Dict[str, int] = {}
        #: compaction point: entries at or below ship only via snapshot.
        self._snap_index = 0
        #: election bookkeeping.
        self._votes: Set[str] = set()
        self._prevote_votes: Set[str] = set()
        self._prevote_term = 0
        self._rng = random.Random(f"{self.config.seed}/{node_id}")
        self._timeout_ms = self._draw_timeout()
        self._last_leader_contact = env.now
        self._alive = True
        self.on_role_change: Optional[Callable[[], None]] = None
        #: introspection counters (asserted by the conformance suite).
        self.snapshots_installed = 0
        self.snapshots_sent = 0
        self.stats = {"proposals": 0, "elections": 0, "leaderships": 0,
                      "commits": 0, "deliveries": 0}

    # -- introspection ---------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return (self._alive and self.role is RaftRole.LEADER
                and self._established)

    @property
    def leadership_epoch(self) -> int:
        return self.current_term

    def counters(self):
        yield from super().counters()
        yield ("raft.snapshots_installed", self.node_id,
               self.snapshots_installed)

    @property
    def log(self) -> List[object]:
        """The replicated records, in stamp order (contract view)."""
        return [e.record for e in self._entries]

    @property
    def last_zxid(self) -> int:
        return self._entries[-1].record.zxid if self._entries else 0

    @property
    def next_zxid(self) -> int:
        return make_zxid(self.current_term, len(self._entries) + 1)

    @property
    def _last_index(self) -> int:
        return len(self._entries)

    @property
    def _last_term(self) -> int:
        return self._entries[-1].term if self._entries else 0

    @property
    def _learners(self) -> List[str]:
        return (self.peer_ids + self.observer_ids if self.observer_ids
                else self.peer_ids)

    def _draw_timeout(self) -> float:
        return self._rng.uniform(self.config.election_timeout_min_ms,
                                 self.config.election_timeout_max_ms)

    def _term_at(self, index: int) -> int:
        return self._entries[index - 1].term if index else 0

    # -- lifecycle -------------------------------------------------------

    def bootstrap(self, leader_id: str, epoch: int = 1) -> None:
        """Install an initial leadership without running an election."""
        self.current_term = epoch
        self.leader_id = leader_id
        if leader_id == self.node_id:
            self.role = RaftRole.LEADER
            self._established = True  # empty history: nothing to confirm
            self._init_leader_state()
        else:
            self.role = RaftRole.FOLLOWER
        self._last_leader_contact = self.env.now
        self.env.process(self._ticker())

    def crash(self) -> None:
        """Stop participating. Durable state persists (disk)."""
        self._alive = False

    def recover(self) -> None:
        """Come back up as a follower; the leader's heartbeat AppendEntries
        probes repair our log via the normal next_index walk-back."""
        self._alive = True
        self.role = RaftRole.FOLLOWER
        self.leader_id = None
        self._established = False
        self._timeout_ms = self._draw_timeout()
        self._last_leader_contact = self.env.now
        self.env.process(self._ticker())

    # -- client of the protocol ------------------------------------------

    def propose(self, txn, meta=None) -> int:
        if not self.is_leader:
            raise NotLeaderError(self.node_id)
        self.stats["proposals"] += 1
        index = self._append_local(txn, meta)
        zxid = self._entries[index - 1].record.zxid
        self._replicate_new(index)
        self._advance_commit()
        return zxid

    def _append_local(self, txn, meta) -> int:
        index = self._last_index + 1
        record = self._record(make_zxid(self.current_term, index), txn, meta)
        self._entries.append(RaftEntry(self.current_term, record))
        self._match_index[self.node_id] = index
        return index

    def _replicate_new(self, index: int) -> None:
        """Ship entry ``index`` to every learner already caught up; the
        heartbeat backfill covers laggards."""
        msg = AppendEntries(self.current_term, self.node_id, index - 1,
                            self._term_at(index - 1),
                            [self._entries[index - 1]], self.commit_index)
        ready = [p for p in self._learners
                 if self._next_index.get(p, index) == index]
        for peer in ready:
            self._next_index[peer] = index + 1
        if len(ready) == len(self._learners) and self._send_many is not None:
            self._send_many(ready, msg)
        else:
            for peer in ready:
                self._send(peer, msg)

    # -- message dispatch ------------------------------------------------

    def handle(self, src: str, msg: object) -> bool:
        """Process a protocol message; False if not a Raft message."""
        if not self._alive:
            return True
        if isinstance(msg, RequestVote):
            self._on_request_vote(src, msg)
        elif isinstance(msg, VoteReply):
            self._on_vote_reply(src, msg)
        elif isinstance(msg, AppendEntries):
            self._on_append_entries(src, msg)
        elif isinstance(msg, AppendReply):
            self._on_append_reply(src, msg)
        elif isinstance(msg, InstallSnapshot):
            self._on_install_snapshot(src, msg)
        elif isinstance(msg, SnapshotReply):
            self._on_snapshot_reply(src, msg)
        else:
            return False
        return True

    def _step_down(self, term: int) -> None:
        """A higher term exists: adopt it and revert to follower."""
        was_leader = self.is_leader
        self.current_term = term
        self.voted_for = None
        self.role = RaftRole.FOLLOWER
        self.leader_id = None
        self._established = False
        if was_leader and self.on_role_change:
            self.on_role_change()

    # -- elections -------------------------------------------------------

    def _ticker(self):
        """One loop per live incarnation: leader heartbeats double as
        backfill probes; followers watch for leader silence."""
        while self._alive:
            yield self.env.timeout(self.config.heartbeat_ms)
            if not self._alive:
                return
            if self.role is RaftRole.LEADER:
                self._replicate_all()
            elif not self.is_observer:
                silence = self.env.now - self._last_leader_contact
                if silence > self._timeout_ms:
                    self._start_prevote()

    def _start_prevote(self) -> None:
        # The attempt clock restarts with a fresh randomized draw, so a
        # failed round retries after a different interval (split-vote
        # de-synchronization).
        self._last_leader_contact = self.env.now
        self._timeout_ms = self._draw_timeout()
        # Pre-vote is non-binding, so a candidate retrying after a split
        # vote reverts to follower for the new poll.
        self.role = RaftRole.FOLLOWER
        if not self.config.pre_vote or self.quorum == 1:
            self._start_candidacy(self.current_term + 1)
            return
        self._prevote_term = self.current_term + 1
        self._prevote_votes = {self.node_id}
        poll = RequestVote(self._prevote_term, self.node_id,
                           self._last_index, self._last_term, pre_vote=True)
        for peer in self.peer_ids:
            self._send(peer, poll)

    def _start_candidacy(self, term: int) -> None:
        self.stats["elections"] += 1
        self.current_term = term
        self.voted_for = self.node_id
        self.role = RaftRole.CANDIDATE
        self.leader_id = None
        self._established = False
        self._votes = {self.node_id}
        if len(self._votes) >= self.quorum:
            self._become_leader()
            return
        ballot = RequestVote(self.current_term, self.node_id,
                             self._last_index, self._last_term)
        for peer in self.peer_ids:
            self._send(peer, ballot)

    def _fresh_leader(self) -> bool:
        """Have we heard from a live leader within the minimum timeout?
        (Leader stickiness: the pre-vote guard against partition churn.)"""
        return (self.leader_id is not None
                and (self.env.now - self._last_leader_contact)
                < self.config.election_timeout_min_ms)

    def _log_ok(self, last_log_term: int, last_log_index: int) -> bool:
        """Election restriction: candidate's log at least as up to date."""
        return ((last_log_term, last_log_index)
                >= (self._last_term, self._last_index))

    def _on_request_vote(self, src: str, msg: RequestVote) -> None:
        if self.is_observer:
            return  # observers never vote
        if msg.pre_vote:
            # Non-binding: no term adoption, no vote recorded.
            granted = (msg.term > self.current_term
                       and self._log_ok(msg.last_log_term, msg.last_log_index)
                       and not self._fresh_leader())
            self._send(src, VoteReply(msg.term, self.current_term,
                                      self.node_id, granted, pre_vote=True))
            return
        if msg.term > self.current_term:
            self._step_down(msg.term)
        granted = (msg.term == self.current_term
                   and self.voted_for in (None, msg.candidate_id)
                   and self._log_ok(msg.last_log_term, msg.last_log_index))
        if granted:
            self.voted_for = msg.candidate_id
            self._last_leader_contact = self.env.now
        self._send(src, VoteReply(msg.term, self.current_term,
                                  self.node_id, granted))

    def _vote_valid(self, msg: VoteReply) -> bool:
        """Does this granted reply count toward the phase we are in?

        The term/phase checks here are load-bearing: counting a stale
        or pre-vote grant as a real vote elects leaders without a real
        quorum (the conformance teeth tests pin exactly this).
        """
        if msg.pre_vote:
            return (self.role is RaftRole.FOLLOWER
                    and msg.term == self._prevote_term
                    and msg.term == self.current_term + 1)
        return (self.role is RaftRole.CANDIDATE
                and msg.term == self.current_term)

    def _on_vote_reply(self, src: str, msg: VoteReply) -> None:
        if msg.responder_term > self.current_term:
            self._step_down(msg.responder_term)
            return
        if not msg.granted or not self._vote_valid(msg):
            return
        if self.role is RaftRole.CANDIDATE:
            self._votes.add(msg.voter_id)
            if len(self._votes) >= self.quorum:
                self._become_leader()
        else:  # pre-vote phase
            self._prevote_votes.add(msg.voter_id)
            if len(self._prevote_votes) >= self.quorum:
                self._start_candidacy(self._prevote_term)

    def _become_leader(self) -> None:
        self.role = RaftRole.LEADER
        self.leader_id = self.node_id
        self._init_leader_state()
        # Barrier no-op: committing an entry of our own term is the only
        # safe way to commit the inherited suffix (figure 8), and its
        # commit is what flips is_leader on.
        txn = self._noop_txn() if self._noop_txn is not None else None
        self._noop_index = self._append_local(txn, None)
        self._established = False
        self._replicate_all()
        self._advance_commit()  # single-node ensembles commit instantly

    def _init_leader_state(self) -> None:
        nxt = self._last_index + 1
        self._next_index = {p: nxt for p in self._learners}
        self._match_index = {p: 0 for p in self._learners}
        self._match_index[self.node_id] = self._last_index

    # -- replication -----------------------------------------------------

    def _replicate_all(self) -> None:
        """Heartbeat: probe every learner from its next_index. An
        up-to-date learner gets an empty AppendEntries; a lagging one
        gets the missing suffix (or a snapshot past the compaction
        point). This one path is heartbeat, retransmission and
        backfill at once."""
        for peer in self._learners:
            self._send_entries(peer)

    def _send_entries(self, peer: str) -> None:
        nxt = self._next_index.get(peer, self._last_index + 1)
        if self._snap_index and nxt <= self._snap_index:
            self.snapshots_sent += 1
            self._send(peer, InstallSnapshot(
                self.current_term, self.node_id, self._snap_index,
                self._entries[:self._snap_index], self.commit_index))
            self._next_index[peer] = self._snap_index + 1
            return
        prev = nxt - 1
        self._send(peer, AppendEntries(
            self.current_term, self.node_id, prev, self._term_at(prev),
            self._entries[prev:], self.commit_index))
        self._next_index[peer] = self._last_index + 1

    def _prev_ok(self, prev_index: int, prev_term: int) -> bool:
        """Log matching: do we hold the leader's claimed predecessor?

        Skipping this check lets a follower graft entries onto a hole
        or a divergent suffix (the other conformance teeth target)."""
        if prev_index == 0:
            return True
        if prev_index > self._last_index:
            return False
        return self._term_at(prev_index) == prev_term

    def _note_leader(self, src: str, term: int) -> None:
        """A valid AppendEntries/InstallSnapshot from ``src``."""
        if term > self.current_term or self.role is not RaftRole.FOLLOWER:
            self.current_term = max(self.current_term, term)
            self.voted_for = None
            self.role = RaftRole.FOLLOWER
        changed = self.leader_id != src
        self.leader_id = src
        self._last_leader_contact = self.env.now
        if changed and self.on_role_change:
            self.on_role_change()

    def _on_append_entries(self, src: str, msg: AppendEntries) -> None:
        if msg.term < self.current_term:
            self._send(src, AppendReply(self.current_term, self.node_id,
                                        False, hint_index=self._last_index))
            return
        self._note_leader(src, msg.term)
        if not self._prev_ok(msg.prev_index, msg.prev_term):
            # Hint: our log can only agree at or below min(our last,
            # the claimed predecessor) — skip the leader straight there.
            hint = min(self._last_index, msg.prev_index - 1)
            self._send(src, AppendReply(self.current_term, self.node_id,
                                        False, hint_index=max(hint, 0)))
            return
        index = msg.prev_index
        for entry in msg.entries:
            index += 1
            if index <= self._last_index:
                if self._entries[index - 1].term == entry.term:
                    continue  # duplicate of what we hold
                # Conflict: drop the (necessarily uncommitted) suffix.
                assert index > self.commit_index, \
                    "raft: attempted truncation below the commit index"
                del self._entries[index - 1:]
            if index == self._last_index + 1:
                self._entries.append(entry)
            # else: mutated _prev_ok accepted a graft past a hole; the
            # entry is dropped and the (wrong) ack below exposes it.
        matched = min(index, self._last_index)
        if msg.leader_commit > self.commit_index:
            self._set_commit(min(msg.leader_commit, matched))
        self._send(src, AppendReply(self.current_term, self.node_id, True,
                                    match_index=matched))

    def _on_append_reply(self, src: str, msg: AppendReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not RaftRole.LEADER or msg.term != self.current_term:
            return
        if msg.success:
            if msg.match_index > self._match_index.get(src, 0):
                self._match_index[src] = msg.match_index
            self._next_index[src] = max(self._next_index.get(src, 1),
                                        msg.match_index + 1)
            self._advance_commit()
        else:
            # Walk back (guided by the hint) and repair immediately.
            nxt = self._next_index.get(src, self._last_index + 1)
            self._next_index[src] = max(1, min(nxt - 1, msg.hint_index + 1))
            self._send_entries(src)

    def _advance_commit(self) -> None:
        if self.role is not RaftRole.LEADER:
            return
        # Highest index replicated on a quorum of *voters* (observers
        # never count), committable only if from the current term.
        matches = sorted(self._match_index.get(v, 0)
                         for v in (self.node_id, *self.peer_ids))
        candidate = matches[len(matches) - self.quorum]
        if candidate <= self.commit_index:
            return
        if self._term_at(candidate) != self.current_term:
            return
        self._set_commit(candidate)
        if not self._established and self.commit_index >= self._noop_index:
            self._established = True
            self.stats["leaderships"] += 1
            if self.on_role_change:
                self.on_role_change()
        self._maybe_compact()

    def _set_commit(self, index: int) -> None:
        if index <= self.commit_index:
            return
        self.commit_index = index
        self.committed_zxid = self._entries[index - 1].record.zxid
        self.stats["commits"] += 1
        delivered = 0
        while (self._delivered_upto < self.commit_index
               and self._delivered_upto < len(self._entries)):
            record = self._entries[self._delivered_upto].record
            self._delivered_upto += 1
            delivered += 1
            self._deliver(record)
        self.stats["deliveries"] += delivered

    def _maybe_compact(self) -> None:
        threshold = self.config.snapshot_threshold
        if threshold and self.commit_index - self._snap_index >= threshold:
            self._snap_index = self.commit_index

    # -- snapshots -------------------------------------------------------

    def _on_install_snapshot(self, src: str, msg: InstallSnapshot) -> None:
        if msg.term < self.current_term:
            self._send(src, AppendReply(self.current_term, self.node_id,
                                        False, hint_index=self._last_index))
            return
        self._note_leader(src, msg.term)
        snap_term = msg.entries[-1].term if msg.entries else 0
        holds_edge = (msg.last_index <= self._last_index
                      and self._term_at(msg.last_index) == snap_term)
        if not holds_edge:
            # Wholesale prefix swap — we are either short of the
            # snapshot edge or divergent at it. Anything we held past
            # the edge is gone too: it is uncommitted (our commit point
            # is necessarily inside the snapshot) and the leader will
            # re-ship whatever of it survives. The delivery watermark is
            # a count into the committed prefix, which the snapshot
            # reproduces verbatim, so it carries over untouched.
            self._entries = list(msg.entries)
            self.snapshots_installed += 1
        self._set_commit(min(msg.leader_commit, msg.last_index))
        self._send(src, SnapshotReply(self.current_term, self.node_id,
                                      msg.last_index))

    def _on_snapshot_reply(self, src: str, msg: SnapshotReply) -> None:
        if msg.term > self.current_term:
            self._step_down(msg.term)
            return
        if self.role is not RaftRole.LEADER or msg.term != self.current_term:
            return
        if msg.last_index > self._match_index.get(src, 0):
            self._match_index[src] = msg.last_index
        self._next_index[src] = max(self._next_index.get(src, 1),
                                    msg.last_index + 1)
        self._advance_commit()
