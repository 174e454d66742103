"""The ``AtomicBroadcast`` contract every consensus kernel implements.

The paper's thesis is that coordination logic should be *extensible
over a fixed replication substrate* — which only means something if the
substrate really is a substrate: an interface the tree server and the
tuple space program against, not a protocol they are welded to. This
module names that interface and pins its semantics; ``zk/zab.py``
(Zab), ``repro/raft`` (Raft) and ``depspace/bft.py`` (PBFT, via the
adapter below) implement it, and ``tests/test_broadcast_conformance.py``
holds all three to the same contract.

The contract
============

An :class:`AtomicBroadcast` endpoint lives at one replica and exposes:

* **propose(txn, meta) -> zxid** — leader-only append to the replicated
  log. The returned *zxid* is the entry's position stamp: a 64-bit
  ``(leadership_epoch << 32) | counter`` whose total order equals
  delivery order. Kernels that cannot stamp at propose time (PBFT —
  any replica forwards, the primary sequences) return 0 and stamp at
  delivery instead.
* **deliver callback** — invoked with each committed record, in stamp
  order, exactly once per live replica. Delivery order is identical at
  every replica (total order) and at any instant each replica's
  delivered sequence is a prefix of the longest one (prefix agreement).
  Once a record is delivered anywhere, it is eventually delivered
  everywhere live (no loss across leader changes).
* **sync barrier** — ``sync_barrier()`` at an established leader
  returns a stamp ``B`` such that every record delivered anywhere
  before the call has stamp ≤ ``B``; a replica whose delivery reached
  ``B`` has seen them all. This is what ``ZkServer.sync()`` pins
  linearizable reads on.
* **leadership events** — ``on_role_change`` fires when this endpoint
  gains or loses an *established* leadership (and when a follower
  installs a new leader's history); ``leadership_epoch`` is a counter
  that increases with every distinct leadership (Zab epoch, Raft term,
  PBFT view) — the fencing token for leases, session expiry and every
  other leader-scoped privilege. Epoch-fence call sites go through
  this property, never through kernel internals.
* **membership** — voting members are fixed at construction;
  ``observer_ids`` / ``is_observer`` describe non-voting learners that
  receive the stream but never count toward any quorum.
* **snapshot install hooks** — catching a replica up may replace its
  log wholesale (Zab full sync, Raft InstallSnapshot) instead of
  replaying a suffix; the kernel preserves the delivery watermark
  across the swap so nothing is re-delivered or skipped. Both paths
  must land replicas in identical delivered sequences (snapshot /
  suffix-sync equivalence, asserted by the conformance suite).

Crash/recovery semantics: ``crash()`` models a process failure with an
fsync'd log — the log, commit pointer and delivery watermark survive;
``recover()`` rejoins and re-syncs. ``handle(src, msg)`` feeds the
kernel a transport message and returns False for foreign payloads.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["AtomicBroadcast", "NotLeaderError", "ZK_KERNELS", "DS_KERNELS",
           "make_zxid", "zxid_epoch", "zxid_counter"]


class NotLeaderError(Exception):
    """propose() was called on a non-leader endpoint."""


def make_zxid(epoch: int, counter: int) -> int:
    """Position stamp: ``(leadership_epoch << 32) | counter``."""
    return (epoch << 32) | counter


def zxid_epoch(zxid: int) -> int:
    return zxid >> 32


def zxid_counter(zxid: int) -> int:
    return zxid & 0xFFFFFFFF


#: kernels selectable via ``ZkConfig.kernel`` / ``DsConfig.kernel``.
ZK_KERNELS = ("zab", "raft")
DS_KERNELS = ("pbft", "raft")


class AtomicBroadcast:
    """Base class + contract for one replica's broadcast endpoint.

    Concrete kernels (:class:`~repro.zk.zab.ZabPeer`,
    :class:`~repro.raft.RaftPeer`) subclass this; the PBFT adapter in
    the conformance harness wraps :class:`~repro.depspace.bft.BftPeer`
    into the same shape. Data attributes every kernel maintains:

    ``log``
        the replicated record sequence (``.zxid``-stamped, sorted);
    ``committed_zxid``
        highest stamp known committed at this replica;
    ``leader_id`` / ``is_leader``
        current leadership as known locally (``is_leader`` is True only
        for an *established* leader — one whose history the quorum has
        confirmed, so ``propose`` and ``sync_barrier`` are safe);
    ``on_role_change``
        optional callback, see module docstring;
    ``stats``
        counted protocol facts (proposals, commits, ...), reported by
        :meth:`counters` as ``<metric_prefix>.<key>``.
    """

    node_id: str
    leader_id: Optional[str]
    committed_zxid: int
    log: List
    on_role_change: Optional[Callable[[], None]]
    stats: Dict[str, int]
    metric_prefix = ""

    # -- lifecycle -------------------------------------------------------

    def bootstrap(self, leader_id: str, epoch: int = 1) -> None:
        """Install an initial leadership without running an election."""
        raise NotImplementedError

    def crash(self) -> None:
        raise NotImplementedError

    def recover(self) -> None:
        raise NotImplementedError

    # -- the protocol ----------------------------------------------------

    def propose(self, txn, meta=None) -> int:
        """Leader-only: append an update; returns its stamp (or 0)."""
        raise NotImplementedError

    def handle(self, src: str, msg: object) -> bool:
        """Process a protocol message; False if the payload is foreign."""
        raise NotImplementedError

    # -- introspection ---------------------------------------------------

    @property
    def is_leader(self) -> bool:
        raise NotImplementedError

    @property
    def last_zxid(self) -> int:
        return self.log[-1].zxid if self.log else 0

    @property
    def next_zxid(self) -> int:
        """The stamp the next :meth:`propose` will assign (leader only).

        Lets the server stamp speculative state with the real zxid
        before proposing: prep → propose runs in one simulation event,
        so nothing can advance the counter in between.
        """
        raise NotImplementedError

    @property
    def leadership_epoch(self) -> int:
        """Fencing token: increases with every distinct leadership.

        Zab epoch, Raft term, PBFT view — 1 at bootstrap, strictly
        greater after any re-election. Lease tables, session expiry
        and other leader-scoped privileges fence on this value instead
        of reaching into kernel internals.
        """
        raise NotImplementedError

    def counters(self) -> Iterator[Tuple[str, str, int]]:
        """Counted protocol facts as ``(name, node, value)``."""
        for key, value in self.stats.items():
            yield f"{self.metric_prefix}.{key}", self.node_id, value

    def sync_barrier(self) -> int:
        """Linearizable-read barrier (valid at an established leader).

        Every record delivered anywhere before this call has a stamp
        ≤ the returned value.
        """
        return self.committed_zxid


def make_zk_kernel(env, node_id: str, peer_ids: List[str], send, deliver,
                   config, observer_ids: Optional[List[str]] = None,
                   is_observer: bool = False, send_many=None,
                   noop_txn: Optional[Callable[[], object]] = None
                   ) -> AtomicBroadcast:
    """Build the ZK family's broadcast endpoint per ``config.kernel``.

    Imports are deferred so this module stays import-light (it sits
    under ``repro.core``, which every layer imports).
    """
    kernel = getattr(config, "kernel", "zab")
    if kernel == "zab":
        from ..zk.zab import ZabPeer
        return ZabPeer(env, node_id, peer_ids, send, deliver,
                       config=config.zab, observer_ids=observer_ids,
                       is_observer=is_observer, send_many=send_many)
    if kernel == "raft":
        from ..raft import RaftConfig, RaftPeer
        from ..zk.txn import TxnRecord
        return RaftPeer(env, node_id, peer_ids, send, deliver,
                        config=config.raft or RaftConfig(),
                        observer_ids=observer_ids, is_observer=is_observer,
                        send_many=send_many,
                        record_factory=lambda zxid, txn, meta: TxnRecord(
                            zxid=zxid, txn=txn, meta=meta),
                        noop_txn=noop_txn)
    raise ValueError(f"unknown kernel {kernel!r} (expected one of "
                     f"{ZK_KERNELS})")
