"""A ZooKeeper replica: request-processor chain over the Zab substrate.

Mirrors the architecture in the paper's Figure 3:

* the **prep** stage (leader only) validates update operations against a
  speculative tree (current state + all prepped-but-uncommitted txns) and
  turns them into deterministic transactions;
* the **proposal** stage is :class:`~repro.zk.zab.ZabPeer`;
* the **final** stage applies committed transactions at every replica,
  answers the originating client, and fires watches.

Reads take ZooKeeper's fast path: they execute at the replica the client
is connected to, against its locally committed state, without touching
the leader.

With ``ZkConfig.local_reads`` enabled the fast path additionally
enforces **session consistency**: requests carry the session's
last-seen zxid, replies carry the zxid the replica answered at, and a
replica whose applied state lags a request's zxid parks the read until
it catches up. A ``SyncOp`` (leader round-trip, no transaction) lets a
client upgrade its next local read to a linearizable one. Replicas may
also be **observers** — non-voting learners that apply the committed
stream and serve reads but never widen the write quorum (§ DESIGN 7).

Extensible ZooKeeper hooks in at exactly the points §5.1.2 describes,
via three attributes that default to ``None``:

* ``extension_router`` — ``(session_id, op) -> bool``; when true the
  request is routed to the leader even if it is a read, because an
  operation extension will consume it;
* ``op_interceptor`` — called at the prep stage; may return an
  :class:`InterceptResult` whose multi-transaction replaces the normal
  translation;
* ``event_hook`` — called at apply time with the state-change events of
  the applied transaction (leader runs event extensions; every replica
  may suppress client notifications).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from bisect import bisect_right

from ..sim import Environment, FifoResource, Network
from .data_tree import DataTree, Stat, split_path
from .errors import (ConnectionLossError, SessionExpiredError, ZkError,
                     from_code, to_code)
from .leases import (LeaseClientRequest, LeaseConfig, LeaseDeny, LeaseGrant,
                     LeasedReply, LeaseRelease, LeaseRequest, LeaseRevoke,
                     LeaseRevokeAck, LeaseTable, WriteGate)
from .overlay import TreeOverlay
from .sessions import ConsistencyTracker, ExpiryClock, SessionTable
from .txn import (ClientReply, ClientRequest, CloseSessionOp, CloseSessionTxn,
                  CreateOp, CreateSessionOp, CreateSessionTxn, CreateTxn,
                  DeleteOp, DeleteTxn, ErrorTxn, ExistsOp, GetChildrenOp,
                  GetDataOp, MultiOp, MultiTxn, Op, PingOp, RequestMeta,
                  SetDataOp, SetDataTxn, SyncOp, Txn, TxnRecord,
                  WatchNotification, ZxidReply, ZxidWatchNotification,
                  is_update)
from ..core.broadcast import make_zk_kernel
from ..obs import (M_DELIVER, M_INGRESS, M_PROPOSE, M_REPLY,
                   FourLetterReply, FourLetterRequest, MetricsRegistry,
                   Observability, ObsConfig, network_counters)
from ..raft import RaftConfig
from .watches import EventType, WatchEvent, WatchManager
from .zab import ZabConfig

__all__ = ["ZkTimings", "ZkConfig", "ZkServer", "Forward", "SessionPing",
           "InterceptResult", "StateEvent"]


@dataclass
class ZkTimings:
    """Per-stage CPU service times (ms) for one replica."""

    read_execute_ms: float = 0.015
    prep_ms: float = 0.015
    log_write_ms: float = 0.015
    apply_ms: float = 0.01
    extension_exec_ms: float = 0.01   # extra prep cost when an extension runs


@dataclass
class ZkConfig:
    timings: ZkTimings = field(default_factory=ZkTimings)
    #: consensus kernel behind the AtomicBroadcast interface: "zab"
    #: (the default, byte-identical to the pre-interface build) or
    #: "raft". The tree server, sessions, watches, leases and reads
    #: are kernel-agnostic — they program against the contract.
    kernel: str = "zab"
    zab: ZabConfig = field(default_factory=ZabConfig)
    #: Raft tuning; None applies RaftConfig() when kernel="raft".
    raft: Optional[RaftConfig] = None
    session_timeout_ms: float = 2000.0
    expiry_sweep_ms: float = 100.0
    #: Session-consistent local reads (ZooKeeper's real read path).
    #: Replies and watch notifications carry the replica's zxid, clients
    #: stamp requests with their last-seen zxid, and lagging replicas
    #: park reads until they catch up. Off by default — the figure
    #: benchmarks reproduce the seed bit-for-bit with this off.
    local_reads: bool = False
    #: Leader-granted read leases for client-side caching (see
    #: ``leases.py``). ``None`` (the default) keeps every path — wire
    #: sizes, scheduling, replies — bit-identical to a lease-free build;
    #: set to a :class:`LeaseConfig` to let ``cached_reads`` clients
    #: serve hot-key reads from local memory at 0 RTT.
    leases: Optional[LeaseConfig] = None
    #: deterministic request tracing (see ``repro.obs``). ``None`` (the
    #: default) leaves ``env.obs`` unset, so every tracing milestone
    #: costs one attribute read and the run is byte-identical to an
    #: unobserved one. Counts and ``mntr`` do not depend on it.
    obs: Optional[ObsConfig] = None


@dataclass
class Forward:
    """Follower -> leader relay of an update request."""

    request: ClientRequest
    origin_replica: str
    client_node: str


@dataclass
class SessionPing:
    session_id: int


@dataclass
class StateEvent:
    """One state change produced by applying a transaction."""

    event_type: EventType
    path: str
    data: bytes = b""
    #: session of the client whose request produced this change (None for
    #: server-internal transactions such as expiry-driven deletions).
    origin_session: Optional[int] = None


@dataclass
class InterceptResult:
    """What an operation extension produced at the prep stage."""

    txn: Txn                      # usually a MultiTxn
    result: Any = None            # piggybacked reply value
    block_path: Optional[str] = None   # defer the reply until this path is created


class ZkServer:
    """One replica of the (extensible-ready) ZooKeeper service."""

    def __init__(self, env: Environment, net: Network, node_id: str,
                 peer_ids: List[str], config: Optional[ZkConfig] = None,
                 observer_ids: Optional[List[str]] = None,
                 is_observer: bool = False):
        self.env = env
        self.net = net
        self.node_id = node_id
        self.peer_ids = list(peer_ids)
        self.config = config or ZkConfig()
        self.timings = self.config.timings
        self.is_observer = is_observer

        self.tree = DataTree()
        self.sessions = SessionTable()
        self.watches = WatchManager()
        # Bucketed expiry tracking: a sweep visits only due buckets
        # instead of scanning every session (ZooKeeper's ExpiryQueue).
        self.heartbeats = ExpiryClock(tick_ms=self.config.expiry_sweep_ms)
        self.read_floors = ConsistencyTracker()
        self.cpu = FifoResource(env, name=f"{node_id}.cpu")

        #: sessions whose client is connected to *this* replica.
        self.local_sessions: Dict[int, str] = {}
        #: path -> [(session_id, xid, client_node)] replies deferred until create.
        self._deferred_blocks: Dict[str, List[Tuple[int, int, str]]] = {}
        #: zxid of the last transaction applied to our tree.
        self._applied_zxid = 0
        #: reads waiting for this replica to catch up to a session's zxid:
        #: (required zxid, meta, op, wants_lease), drained as txns apply.
        self._parked_reads: List[Tuple[int, RequestMeta, Op, bool]] = []
        #: leader-only: (client_node, xid) -> zxid for every update this
        #: leadership has proposed, rebuilt from the log on election.
        #: Clients reuse the xid when they retry after a timeout, so a
        #: hit here means the update already travelled the pipeline —
        #: re-executing it would double-apply non-idempotent extension
        #: ops (see _prep).
        self._proposed_xids: Dict[Tuple[str, int], int] = {}
        #: leader-only: sessions whose CloseSessionTxn this leadership
        #: has *proposed* but possibly not yet applied. Closes the
        #: propose→apply fencing window (no update for the session may
        #: land after its close in zxid order) and makes the expiry
        #: sweep exactly-once (a slow commit must not be re-proposed).
        #: Reset on role change: an uncommitted close dies with the old
        #: leadership, a committed one is visible via the session table.
        self._closing_sessions: set = set()
        #: lease machinery (None unless ``config.leases`` is set): the
        #: leader's grant/gate book, a follower's parked grant waits,
        #: and the per-replica read-heat window (promotion hysteresis).
        self._lease_table: Optional[LeaseTable] = (
            LeaseTable(self.config.leases)
            if self.config.leases is not None else None)
        self._lease_waits: Dict[int, tuple] = {}
        self._lease_wait_seq = 0
        self._read_heat: Dict[str, int] = {}
        self._heat_window_start = 0.0
        if self._lease_table is not None:
            # Closed-session grant index cleanup rides the session
            # table's own close path (replicated, exactly-once).
            self.sessions.on_close = self._lease_table.forget_session
        #: expiry clock paused (crashed or not leading): the first
        #: healthy sweep after a pause *rebases* every session instead
        #: of expiring it, so a long election cannot mass-expire clients
        #: whose pings had no leader to reach. Starts False so the
        #: bootstrap leader's very first sweeps behave exactly as before.
        self._expiry_paused = False

        # An observer's broadcast endpoint lists the voting replicas as
        # its peers but never votes or acks; a voter additionally knows
        # the observers so it can stream to them when it leads. The
        # kernel behind the AtomicBroadcast interface is selected by
        # ``config.kernel`` — Zab (the default) or Raft; every call
        # site below goes through the contract, never the protocol.
        voting = peer_ids if is_observer else [node_id] + list(peer_ids)
        self.broadcast = make_zk_kernel(
            env, node_id, voting, send=self._zab_send,
            deliver=self._on_deliver, config=self.config,
            observer_ids=observer_ids, is_observer=is_observer,
            send_many=self._zab_send_many,
            # Raft's post-election barrier entry: an error txn with no
            # meta applies as a no-op (no reply, no tree change) but
            # still advances the zxid stream gaplessly.
            noop_txn=lambda: ErrorTxn("CONNECTION_LOSS", "leader barrier"))
        self.broadcast.on_role_change = self._on_role_change
        self._spec_tree: Optional[DataTree] = None

        # EZK hooks (see module docstring).
        self.extension_router: Optional[Callable[[int, Op], bool]] = None
        self.op_interceptor: Optional[
            Callable[[RequestMeta, Op, "ZkServer"], Optional[InterceptResult]]] = None
        self.event_hook: Optional[
            Callable[[List[StateEvent], "ZkServer"], None]] = None
        #: notification filter: (session_id, WatchEvent) -> suppress?
        self.notification_filter: Optional[
            Callable[[int, WatchEvent], bool]] = None
        #: called after a crash-recovery rejoin (EZK rebuilds its
        #: extension registry from the /em index, §3.8).
        self.on_recover: Optional[Callable[["ZkServer"], None]] = None

        #: request-pipeline counts (see :meth:`counters`).
        self.stats = {"reads": 0, "writes": 0, "forwards": 0,
                      "watch_deliveries": 0}
        # Observability plane: the first obs-configured server installs
        # it on the env (tracing; counts above are kept regardless).
        if self.config.obs is not None:
            Observability.install(env, self.config.obs, net)

        self._alive = True
        net.register(node_id, self.handle_message)
        env.process(self._expiry_loop())

    # -- wiring ----------------------------------------------------------

    def _zab_send(self, dst: str, msg: object) -> None:
        self.net.send(self.node_id, dst, msg)

    def _zab_send_many(self, dsts, msg: object) -> None:
        # Fan-out path: size the payload once for the whole broadcast.
        self.net.broadcast(self.node_id, dsts, msg)

    def start(self, leader_id: str) -> None:
        """Bootstrap with a known initial leader (no election round)."""
        self.broadcast.bootstrap(leader_id)
        self._on_role_change()

    @property
    def is_leader(self) -> bool:
        return self.broadcast.is_leader

    @property
    def zab(self):
        """Historical alias for :attr:`broadcast` (which, despite the
        name, may be any AtomicBroadcast kernel — see ``config.kernel``)."""
        return self.broadcast

    # -- fault injection ---------------------------------------------------

    def crash(self) -> None:
        self._alive = False
        self.net.crash(self.node_id)
        self.broadcast.crash()
        self._parked_reads.clear()
        self._lease_waits.clear()

    def recover(self) -> None:
        self._alive = True
        self.net.recover(self.node_id)
        self.broadcast.recover()
        if self.on_recover is not None:
            self.on_recover(self)

    # -- message dispatch ------------------------------------------------------

    def handle_message(self, src: str, msg: object) -> None:
        if not self._alive:
            return
        # Client traffic dominates; dispatch it before the Zab ladder.
        if isinstance(msg, ClientRequest):
            self._on_client_request(src, msg)
        elif self.broadcast.handle(src, msg):
            return
        elif isinstance(msg, Forward):
            self._on_forward(msg)
        elif isinstance(msg, SessionPing):
            self.heartbeats.touch(msg.session_id, self.env.now)
        elif isinstance(msg, LeaseRequest):
            self._on_lease_request(src, msg)
        elif isinstance(msg, LeaseGrant):
            self._on_lease_grant(msg)
        elif isinstance(msg, LeaseDeny):
            self._finish_lease_wait(msg.grant_key)
        elif isinstance(msg, LeaseRevokeAck):
            self._on_lease_revoked(msg.lease_id)
        elif isinstance(msg, LeaseRelease):
            self._on_lease_release(msg)
        elif isinstance(msg, FourLetterRequest):
            # Introspection probes sit at the end of the ladder: real
            # traffic never pays for the isinstance check chain above,
            # and no probe exists unless a test or driver sends one.
            self.net.send(self.node_id, src, FourLetterReply(
                msg.xid, msg.command, self._four_letter(msg.command)))

    # -- client requests ---------------------------------------------------

    def _fence_expired(self, session_id: int, op: Op) -> bool:
        """True when the request must be rejected with ``SESSION_EXPIRED``.

        Expiry fencing: a request stamped with a session id whose close
        has been *applied* (or, at the leader, proposed) is rejected
        instead of silently executed. Fencing keys on the *recorded*
        closed-set (plus, at the leader, the proposed-but-unapplied
        closing set) — never on mere table absence, which on a lagging
        replica just means the session's creation has not applied yet.
        ``CloseSessionOp`` is exempt so a client retrying its own close
        still gets an answer.
        """
        if not session_id or isinstance(op, CloseSessionOp):
            return False
        if self.sessions.is_closed(session_id):
            return True
        return self.broadcast.is_leader and session_id in self._closing_sessions

    def _on_client_request(self, src: str, req: ClientRequest) -> None:
        op = req.op
        obs = self.env.obs
        if obs is not None and not isinstance(op, PingOp):
            obs.tracer.mark(src, req.xid, M_INGRESS, self.env.now,
                            self.node_id)
        if self._fence_expired(req.session_id, op):
            self._reply(src, ClientReply(
                req.xid, False, None, SessionExpiredError.code,
                f"session {req.session_id} expired"))
            return
        if isinstance(op, PingOp):
            self._on_ping(src, req)
            return
        meta = RequestMeta(self.node_id, src, req.session_id, req.xid)
        if isinstance(op, SyncOp):
            self._route_sync(meta, req)
            return
        routed_by_extension = (
            self.extension_router is not None
            and self.extension_router(req.session_id, op))
        if is_update(op) or routed_by_extension:
            self._route_update(meta, req)
        else:
            self._handle_read(meta, op, getattr(req, "last_zxid", 0),
                              wants_lease=(self._lease_table is not None
                                           and isinstance(
                                               req, LeaseClientRequest)))

    def _on_ping(self, src: str, req: ClientRequest) -> None:
        self.local_sessions.setdefault(req.session_id, src)
        if self.broadcast.is_leader:
            self.heartbeats.touch(req.session_id, self.env.now)
        elif self.broadcast.leader_id is not None:
            self.net.send(self.node_id, self.broadcast.leader_id,
                          SessionPing(req.session_id))
        self._reply(src, ClientReply(req.xid, ok=True, value="pong"))

    def _route_update(self, meta: RequestMeta, req: ClientRequest) -> None:
        self.local_sessions[req.session_id] = meta.client_node
        self.stats["writes"] += 1
        if self.broadcast.is_leader:
            if self._lease_table is not None:
                self._gate_or_prep(meta, req.op)
            else:
                self._enter_prep(meta, req.op)
        elif self.broadcast.leader_id is not None:
            self.stats["forwards"] += 1
            self.net.send(self.node_id, self.broadcast.leader_id,
                          Forward(req, self.node_id, meta.client_node))
        else:
            self._reply_error(meta, ConnectionLossError("no leader known"))

    def _on_forward(self, fwd: Forward) -> None:
        meta = RequestMeta(fwd.origin_replica, fwd.client_node,
                           fwd.request.session_id, fwd.request.xid)
        if not self.broadcast.is_leader:
            # Stale forward (leadership moved): bounce an error so the
            # client retries against the new topology.
            self._reply_error(meta, ConnectionLossError("not the leader"))
            return
        if self._fence_expired(meta.session_id, fwd.request.op):
            self._reply_error(meta, SessionExpiredError(
                f"session {meta.session_id} expired"))
            return
        if isinstance(fwd.request.op, SyncOp):
            self._answer_sync(meta)
            return
        if self._lease_table is not None:
            self._gate_or_prep(meta, fwd.request.op)
        else:
            self._enter_prep(meta, fwd.request.op)

    # -- sync (leader round-trip, no txn) -----------------------------------

    def _route_sync(self, meta: RequestMeta, req: ClientRequest) -> None:
        """ZooKeeper ``sync``: a flush to the leader with no transaction."""
        self.local_sessions[meta.session_id] = meta.client_node
        if self.broadcast.is_leader:
            self._answer_sync(meta)
        elif self.broadcast.leader_id is not None:
            self.net.send(self.node_id, self.broadcast.leader_id,
                          Forward(req, self.node_id, meta.client_node))
        else:
            self._reply_error(meta, ConnectionLossError("no leader known"))

    def _answer_sync(self, meta: RequestMeta) -> None:
        """Leader side: answer with the current commit point.

        The reply's value (and zxid stamp) is the leader's committed
        zxid when the sync reached it; a read parked on that zxid
        observes every write that completed before the sync was issued.
        """
        self.heartbeats.touch(meta.session_id, self.env.now)
        work = self.cpu.submit(self.timings.read_execute_ms)
        work.add_callback(lambda _e: self._finish_sync(meta))

    def _finish_sync(self, meta: RequestMeta) -> None:
        if not self._alive:
            return
        if not self.broadcast.is_leader:
            self._reply_error(meta, ConnectionLossError("leadership moved"))
            return
        zxid = self.broadcast.sync_barrier()
        self._reply(meta.client_node,
                    ZxidReply(meta.xid, True, zxid, zxid=zxid))

    # -- read fast path ------------------------------------------------------

    def _handle_read(self, meta: RequestMeta, op: Op,
                     last_zxid: int = 0, wants_lease: bool = False) -> None:
        self.local_sessions[meta.session_id] = meta.client_node
        self.stats["reads"] += 1
        if self.config.local_reads:
            # Session consistency: never serve a state older than what
            # this session has already seen (request stamp) or what this
            # replica has already served it (local floor).
            required = max(last_zxid, self.read_floors.floor(meta.session_id))
            if required > self._applied_zxid:
                self._parked_reads.append((required, meta, op, wants_lease))
                return
        self._submit_read(meta, op, wants_lease)

    def _submit_read(self, meta: RequestMeta, op: Op,
                     wants_lease: bool = False) -> None:
        work = self.cpu.submit(self.timings.read_execute_ms)
        work.add_callback(lambda _e: self._execute_read(meta, op, wants_lease))

    def _drain_parked_reads(self) -> None:
        """Run every parked read the applied state now satisfies."""
        if not self._parked_reads:
            return
        applied = self._applied_zxid
        still_parked = []
        for entry in self._parked_reads:
            if entry[0] <= applied:
                self._submit_read(entry[1], entry[2], entry[3])
            else:
                still_parked.append(entry)
        self._parked_reads = still_parked

    def _execute_read(self, meta: RequestMeta, op: Op,
                      wants_lease: bool = False) -> None:
        if not self._alive:
            return
        try:
            if isinstance(op, GetDataOp):
                data, stat = self.tree.get_data(op.path)
                if op.watch:
                    self.watches.add_data_watch(op.path, meta.session_id)
                value = (data, stat)
            elif isinstance(op, ExistsOp):
                stat = self.tree.exists(op.path)
                if op.watch:
                    self.watches.add_data_watch(op.path, meta.session_id)
                value = stat
            elif isinstance(op, GetChildrenOp):
                children = self.tree.get_children(op.path)
                if op.watch:
                    self.watches.add_child_watch(op.path, meta.session_id)
                value = children
            else:
                raise ZkError(f"not a read operation: {op!r}")
        except ZkError as error:
            self._reply_error(meta, error)
            return
        if wants_lease and self._try_lease_reply(meta, op, value):
            return
        if self.config.local_reads:
            zxid = self._applied_zxid
            self.read_floors.note(meta.session_id, zxid)
            self._reply(meta.client_node,
                        ZxidReply(meta.xid, True, value, zxid=zxid))
            return
        self._reply(meta.client_node, ClientReply(meta.xid, True, value))

    # -- leases: grants (read side) ------------------------------------------

    def _try_lease_reply(self, meta: RequestMeta, op: Op, value) -> bool:
        """Attach a lease to this read reply if the key qualifies.

        True means the reply was (or will be, once the leader answers a
        follower's grant request) sent by the lease path; False falls
        back to the ordinary reply tail of :meth:`_execute_read`.
        """
        if not isinstance(op, (GetDataOp, ExistsOp)) or op.watch:
            return False
        stat = value[1] if isinstance(value, tuple) else value
        if not isinstance(stat, Stat):
            return False          # exists() on a missing node: no key to lease
        if not self._note_heat(op.path):
            return False          # cold key: plain read, no leader traffic
        zxid = self._applied_zxid
        if self.broadcast.is_leader:
            lease = self._leader_grant(meta.session_id, meta.client_node,
                                       op.path)
            if lease is None:
                return False
            if self.config.local_reads and meta.session_id:
                self.read_floors.note(meta.session_id, zxid)
            self._reply(meta.client_node, LeasedReply(
                meta.xid, True, value, zxid=zxid,
                lease_id=lease.lease_id, lease_expires_at=lease.expires_at,
                lease_epoch=self.broadcast.leadership_epoch))
            return True
        leader = self.broadcast.leader_id
        if leader is None:
            return False
        # Park the reply and ask the leader; a timeout answers plain so
        # a dark leader can never stall reads.
        self._lease_wait_seq += 1
        key = self._lease_wait_seq
        self._lease_waits[key] = (meta, op, value, zxid, stat.mzxid)
        self.net.send(self.node_id, leader, LeaseRequest(
            meta.session_id, op.path, key, self.node_id, meta.client_node,
            stat.mzxid))
        self.env.defer(self.config.leases.grant_timeout_ms,
                       self._finish_lease_wait, key)
        return True

    def _note_heat(self, path: str) -> bool:
        """Promotion hysteresis: lease only keys hot in the current window."""
        cfg = self.config.leases
        now = self.env.now
        if now - self._heat_window_start >= cfg.heat_window_ms:
            self._read_heat.clear()
            self._heat_window_start = now
        count = self._read_heat.get(path, 0) + 1
        self._read_heat[path] = count
        return count >= cfg.min_reads

    def _leader_grant(self, session_id: int, client_node: str, path: str):
        """Grant fence (leader): every reason a grant must be refused."""
        table = self._lease_table
        if table is None or not session_id:
            return None
        if self.env.now < table.recovery_until:
            return None           # epoch fence: old grants still at large
        if (session_id not in self.sessions
                or self.sessions.is_closed(session_id)
                or session_id in self._closing_sessions):
            return None           # never arm a cache the fence already killed
        if self.op_interceptor is not None:
            # An extension can rewrite its write set at prep time, so
            # the per-path pending marks below are not enough here:
            # refuse grants while *any* write is between ingress and
            # apply.
            if table.pipeline_refs or self.broadcast.last_zxid > self._applied_zxid:
                return None
        auth_stat = self.tree.exists(path)
        if auth_stat is None:
            return None
        spec = self._spec_tree
        if spec is not None:
            spec_stat = spec.exists(path)
            if spec_stat is None or spec_stat.mzxid != auth_stat.mzxid:
                return None       # a write to this key is in the pipeline
        return table.grant(path, session_id, client_node, self.env.now)

    def _on_lease_request(self, src: str, msg: LeaseRequest) -> None:
        if self._lease_table is None or not self.broadcast.is_leader:
            self.net.send(self.node_id, src, LeaseDeny(msg.grant_key))
            return
        auth_stat = self.tree.exists(msg.path)
        if auth_stat is None or auth_stat.mzxid != msg.mzxid:
            # The follower read a version the leader has already moved
            # past (or not reached — it re-checks on its side too).
            self.net.send(self.node_id, src, LeaseDeny(msg.grant_key))
            return
        lease = self._leader_grant(msg.session_id, msg.client_node, msg.path)
        if lease is None:
            self.net.send(self.node_id, src, LeaseDeny(msg.grant_key))
            return
        self.net.send(self.node_id, src, LeaseGrant(
            msg.grant_key, lease.lease_id, lease.expires_at,
            self.broadcast.leadership_epoch, auth_stat.mzxid))

    def _on_lease_grant(self, msg: LeaseGrant) -> None:
        entry = self._lease_waits.pop(msg.grant_key, None)
        if entry is None:
            return                # timed out; the grant just expires unused
        meta, op, value, zxid, mzxid = entry
        stat = self.tree.exists(op.path)
        if (msg.mzxid != mzxid or stat is None or stat.mzxid != mzxid):
            # The key moved while the grant was in flight: installing
            # the cached value now would hand the client stale state.
            self._plain_read_reply(meta, value, zxid)
            return
        if self.config.local_reads and meta.session_id:
            self.read_floors.note(meta.session_id, zxid)
        self._reply(meta.client_node, LeasedReply(
            meta.xid, True, value, zxid=zxid,
            lease_id=msg.lease_id, lease_expires_at=msg.expires_at,
            lease_epoch=msg.epoch))

    def _finish_lease_wait(self, grant_key: int) -> None:
        """Deny or grant-timeout: answer the parked read plain."""
        entry = self._lease_waits.pop(grant_key, None)
        if entry is None or not self._alive:
            return
        meta, _op, value, zxid, _mzxid = entry
        self._plain_read_reply(meta, value, zxid)

    def _plain_read_reply(self, meta: RequestMeta, value, zxid: int) -> None:
        if self.config.local_reads:
            if meta.session_id:
                self.read_floors.note(meta.session_id, zxid)
            self._reply(meta.client_node,
                        ZxidReply(meta.xid, True, value, zxid=zxid))
            return
        self._reply(meta.client_node, ClientReply(meta.xid, True, value))

    # -- leases: write gating (leader) ---------------------------------------

    def _lease_write_paths(self, meta: RequestMeta, op: Op) -> Tuple[str, ...]:
        if isinstance(op, (CreateOp, SetDataOp, DeleteOp)):
            return (op.path,)
        if isinstance(op, MultiOp):
            return tuple(sub.path for sub in op.ops
                         if isinstance(sub, (CreateOp, SetDataOp, DeleteOp)))
        if isinstance(op, CloseSessionOp):
            return self._session_ephemeral_paths(meta.session_id)
        return ()

    def _session_ephemeral_paths(self, session_id: int) -> Tuple[str, ...]:
        tree = self._spec_tree if self._spec_tree is not None else self.tree
        return tuple(tree.ephemerals_of(session_id))

    def _gate_or_prep(self, meta: RequestMeta, op: Op) -> None:
        """Leader write ingress with leases on: park behind revocation.

        The pending marks raised here stop new grants on the write's
        paths from this moment on; :meth:`_prep` lowers them once the
        speculative tree carries the write (from then on the grant
        fence's mzxid comparison takes over).
        """
        table = self._lease_table
        now = self.env.now
        paths = self._lease_write_paths(meta, op)
        fence_paths = paths
        if self.op_interceptor is not None:
            # The interceptor may rewrite the write set at prep time, so
            # fence against every live lease, not just declared paths.
            fence_paths = tuple(sorted(
                set(paths) | set(table.all_leased_paths(now))))
        blockers = table.active_on(fence_paths, now)
        table.acquire_pending(paths)
        if not blockers and now >= table.recovery_until:
            self._enter_prep(meta, op, lease_paths=paths)
            return
        grace = table.config.grace_ms
        not_before = max([table.recovery_until]
                         + [b.expires_at + grace for b in blockers])
        gate = WriteGate("update", paths, {b.lease_id for b in blockers},
                         not_before, meta=meta, op=op)
        if self.env.obs is not None:
            # Ad-hoc stamp (WriteGate is a plain dataclass): the gate
            # wait surfaces as an aux span when the write finally fires.
            gate.obs_gated_at = now
        table.open_gate(gate)
        for blocker in blockers:
            self.net.send(self.node_id, blocker.client_node,
                          LeaseRevoke(blocker.path, blocker.lease_id))
        self.env.defer(max(0.0, not_before - now), self._gate_deadline, gate)

    def _on_lease_revoked(self, lease_id: int) -> None:
        if self._lease_table is None:
            return
        for gate in self._lease_table.revoked(lease_id):
            self._maybe_fire_gate(gate)

    def _on_lease_release(self, msg: LeaseRelease) -> None:
        """Voluntary early release (client sync barrier)."""
        if self._lease_table is None:
            return
        if not self.broadcast.is_leader:
            if self.broadcast.leader_id is not None:
                self.net.send(self.node_id, self.broadcast.leader_id, msg)
            return
        ready: List[WriteGate] = []
        for lease_id in msg.lease_ids:
            ready.extend(self._lease_table.revoked(lease_id))
        for gate in ready:
            self._maybe_fire_gate(gate)

    def _maybe_fire_gate(self, gate: WriteGate) -> None:
        """Ack-drain path: every waited-on lease has been revoked."""
        if gate.fired or not self._alive or gate.waiting:
            return
        self._fire_gate(gate)

    def _gate_deadline(self, gate: WriteGate) -> None:
        """Expiry path: unacked leases ran out their term plus grace."""
        if gate.fired or not self._alive:
            return
        table = self._lease_table
        if table is not None and gate.waiting:
            table.purge(gate.waiting)
            gate.waiting = set()
        self._fire_gate(gate)

    def _fire_gate(self, gate: WriteGate) -> None:
        table = self._lease_table
        if table is None or gate.fired:
            return
        table.close_gate(gate)
        if gate.kind == "close":
            table.release_pending(gate.paths)
            session_id = gate.session_id
            if (self.broadcast.is_leader and session_id in self.sessions
                    and session_id in self._closing_sessions):
                self._apply_to_spec(CloseSessionTxn(session_id))
                self.broadcast.propose(CloseSessionTxn(session_id), None)
            return
        if not self.broadcast.is_leader:
            table.release_pending(gate.paths)
            self._reply_error(gate.meta,
                              ConnectionLossError("leadership moved"))
            return
        gated_at = getattr(gate, "obs_gated_at", None)
        if gated_at is not None:
            self.env.obs.tracer.aux(
                gate.meta.client_node, gate.meta.xid, "lease_gate",
                gated_at, self.env.now, self.node_id,
                detail=f"paths={len(gate.paths)}")
        self._enter_prep(gate.meta, gate.op, lease_paths=gate.paths)

    def _gate_session_close(self, session_id: int) -> bool:
        """Park an expiry-driven close behind leases on its ephemerals.

        True when the close was gated (the sweep must not propose it);
        False when nothing blocks it and the normal path proceeds.
        Without this, an expiry sweep could delete a leased ephemeral
        while its (other-session) holder still serves it from cache.
        """
        table = self._lease_table
        now = self.env.now
        paths = self._session_ephemeral_paths(session_id)
        blockers = table.active_on(paths, now) if paths else []
        if not blockers and now >= table.recovery_until:
            return False
        table.acquire_pending(paths)
        grace = table.config.grace_ms
        not_before = max([table.recovery_until]
                         + [b.expires_at + grace for b in blockers])
        gate = WriteGate("close", paths, {b.lease_id for b in blockers},
                         not_before, session_id=session_id)
        table.open_gate(gate)
        for blocker in blockers:
            self.net.send(self.node_id, blocker.client_node,
                          LeaseRevoke(blocker.path, blocker.lease_id))
        self.env.defer(max(0.0, not_before - now), self._gate_deadline, gate)
        return True

    # -- prep stage (leader) -----------------------------------------------

    def _enter_prep(self, meta: RequestMeta, op: Op,
                    lease_paths: Optional[Tuple[str, ...]] = None) -> None:
        self.heartbeats.touch(meta.session_id, self.env.now)
        cost = self.timings.prep_ms + self.timings.log_write_ms
        work = self.cpu.submit(cost)
        work.add_callback(lambda _e: self._prep(meta, op, lease_paths))

    def _prep(self, meta: RequestMeta, op: Op,
              lease_paths: Optional[Tuple[str, ...]] = None) -> None:
        if lease_paths is not None and self._lease_table is not None:
            # The translate below runs in this same event: from here on
            # the speculative tree (mzxid fence) covers the write.
            self._lease_table.release_pending(lease_paths)
        if not self._alive:
            return
        if not self.broadcast.is_leader:
            self._reply_error(meta, ConnectionLossError("leadership moved"))
            return
        spec = self._spec_tree
        assert spec is not None, "established leader must have a spec tree"

        # At-most-once guard: a timed-out client retries with the same
        # xid via another replica, and a forward stranded in a partition
        # can surface again after the heal. Whichever copy arrives
        # second must not re-run the update (a second /queue/head
        # extension call would silently eat another element); answer it
        # from the already-proposed transaction instead.
        key = (meta.client_node, meta.xid)
        proposed = self._proposed_xids.get(key)
        if proposed is not None:
            self._answer_duplicate(meta, proposed)
            return

        # The session may have expired between routing and this prep
        # slot (the expiry sweep runs between CPU grants): fence here
        # too, so no update for a closing session enters the pipeline
        # after its CloseSessionTxn.
        if self._fence_expired(meta.session_id, op):
            self._reply_error(meta, SessionExpiredError(
                f"session {meta.session_id} expired"))
            return

        if self.op_interceptor is not None:
            try:
                intercepted = self.op_interceptor(meta, op, self)
            except ZkError as error:
                self._reply_error(meta, error)
                return
            if intercepted is not None:
                # The extension ran against the speculative tree; apply
                # its write-set and propose in the same event so the next
                # prep sees it (atomicity under pipelining). The extra
                # leader CPU it consumed is billed as a queue item — only
                # on the matched path, so regular clients see none of it
                # (§6.2's <0.4% overhead claim).
                self.cpu.submit(self.timings.extension_exec_ms)
                self._propose_intercepted(meta, intercepted)
                return

        try:
            txn = self._translate(meta, op, spec)
        except ZkError as error:
            # Faithful to ZooKeeper: rejected updates still travel the
            # ordered pipeline as error transactions.
            txn = ErrorTxn(to_code(error), str(error))
        zxid = self.broadcast.propose(txn, meta)
        self._proposed_xids[(meta.client_node, meta.xid)] = zxid
        self._mark_propose(meta, zxid)

    def _propose_intercepted(self, meta: RequestMeta,
                             intercepted: InterceptResult) -> None:
        if not self._alive or not self.broadcast.is_leader:
            return
        self._apply_to_spec(intercepted.txn)
        if intercepted.block_path is not None:
            intercepted.txn.effects.append(("block", intercepted.block_path))
        zxid = self.broadcast.propose(intercepted.txn, meta)
        self._proposed_xids[(meta.client_node, meta.xid)] = zxid
        self._mark_propose(meta, zxid)

    def _mark_propose(self, meta: RequestMeta, zxid: int) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.tracer.mark(meta.client_node, meta.xid, M_PROPOSE,
                            self.env.now, self.node_id,
                            epoch=self.broadcast.leadership_epoch,
                            zxid=zxid)

    def _answer_duplicate(self, meta: RequestMeta, zxid: int) -> None:
        """Answer a retried update from its already-proposed txn record.

        If the record has not applied locally yet, repointing its meta
        at the retry's origin makes :meth:`_after_apply` send the reply
        through the replica the client is *now* connected to. If it has
        applied, the reply is re-derived from the committed txn.
        """
        log = self.broadcast.log
        idx = bisect_right(log, zxid, key=lambda r: r.zxid)
        if not idx or log[idx - 1].zxid != zxid:
            return
        record = log[idx - 1]
        if zxid > self._applied_zxid:
            record.meta = meta
            return
        txn = record.txn
        if isinstance(txn, ErrorTxn):
            self._reply_error(meta, from_code(txn.code, txn.message))
            return
        if isinstance(txn, MultiTxn):
            blocks = [e[1] for e in txn.effects if e[0] == "block"]
            if blocks:
                for path in blocks:
                    self._register_deferred_block(meta, path)
                return
            value: Any = txn.result_payload if txn.payload_set else None
        elif isinstance(txn, CreateTxn):
            value = txn.path
        elif isinstance(txn, SetDataTxn):
            # Best effort: the stat at apply time is gone; the current
            # one keeps version-based cas loops progressing.
            value = self.tree.exists(txn.path)
        elif isinstance(txn, CreateSessionTxn):
            value = record.zxid
        elif isinstance(txn, CloseSessionTxn):
            value = True
        else:
            value = None
        if self.config.local_reads:
            if meta.session_id:
                self.read_floors.note(meta.session_id, record.zxid)
            self._reply(meta.client_node,
                        ZxidReply(meta.xid, True, value, zxid=record.zxid))
            return
        self._reply(meta.client_node, ClientReply(meta.xid, True, value))

    def _translate(self, meta: RequestMeta, op: Op, spec: DataTree) -> Txn:
        """Turn a validated update op into a deterministic txn (mutates spec)."""
        if isinstance(op, CreateOp):
            owner = meta.session_id if op.ephemeral else None
            # Stamp the zxid the upcoming propose() will assign: czxid
            # order in the spec tree must match the authoritative tree,
            # or extensions that list by creation order ("oldest
            # client") silently degrade to name order.
            actual = spec.create(op.path, op.data, ephemeral_owner=owner,
                                 sequential=op.sequential,
                                 zxid=self.broadcast.next_zxid, now=self.env.now)
            return CreateTxn(actual, op.data, owner)
        if isinstance(op, SetDataOp):
            spec.set_data(op.path, op.data, op.version,
                          zxid=self.broadcast.next_zxid, now=self.env.now)
            return SetDataTxn(op.path, op.data)
        if isinstance(op, DeleteOp):
            spec.delete(op.path, op.version)
            return DeleteTxn(op.path)
        if isinstance(op, MultiOp):
            overlay = TreeOverlay(spec)
            for sub in op.ops:
                if isinstance(sub, CreateOp):
                    owner = meta.session_id if sub.ephemeral else None
                    overlay.create(sub.path, sub.data, ephemeral_owner=owner,
                                   sequential=sub.sequential)
                elif isinstance(sub, SetDataOp):
                    overlay.set_data(sub.path, sub.data, sub.version)
                elif isinstance(sub, DeleteOp):
                    overlay.delete(sub.path, sub.version)
                else:
                    raise ZkError(f"op not allowed in multi: {sub!r}")
            txn = MultiTxn(overlay.txns)
            self._apply_to_spec(txn)
            return txn
        if isinstance(op, CreateSessionOp):
            return CreateSessionTxn(0, op.timeout_ms, op.client_id)
        if isinstance(op, CloseSessionOp):
            # Exactly-once close: a close raced by the expiry sweep (or
            # a duplicate from a new connection) must not propose a
            # second CloseSessionTxn.
            if (meta.session_id in self._closing_sessions
                    or meta.session_id not in self.sessions):
                raise SessionExpiredError(
                    f"session {meta.session_id} already closed")
            self._closing_sessions.add(meta.session_id)
            return CloseSessionTxn(meta.session_id)
        raise ZkError(f"unknown update operation: {op!r}")

    def _apply_to_spec(self, txn: Txn) -> None:
        spec = self._spec_tree
        if spec is None:
            return
        # Callers run before propose(), so next_zxid is the zxid this
        # txn will carry — spec czxids stay identical to the committed
        # tree's (extensions sort sub-objects by them).
        _apply_txn_to_tree(spec, txn, zxid=self.broadcast.next_zxid,
                           now=self.env.now)

    def _on_role_change(self) -> None:
        if self._lease_table is not None:
            self._lease_reset_for_role()
        if self.broadcast.is_leader:
            self._spec_tree = _copy_tree(self.tree)
            # Carry the at-most-once guard across elections: retries of
            # updates the *previous* leader proposed arrive here with
            # the same (client, xid) and must not re-execute.
            self._proposed_xids = {
                (record.meta.client_node, record.meta.xid): record.zxid
                for record in self.broadcast.log if record.meta is not None
            }
            for session_id in self.sessions.ids():
                session = self.sessions.get(session_id)
                self.heartbeats.track(session_id, session.timeout_ms,
                                      self.env.now)
            # Uncommitted closes died with the old leadership; committed
            # ones are visible through the session table.
            self._closing_sessions = set()
        else:
            self._spec_tree = None
            self._proposed_xids = {}
            self._closing_sessions = set()

    def _lease_reset_for_role(self) -> None:
        """Leases are leader-soft state: a role change wipes the book.

        Parked writes die with the old leadership (their clients retry
        against the new topology), and a *new* leadership that is not
        the bootstrap one raises the recovery fence: it cannot know what
        the old leader granted, so every write waits out one full lease
        term — the Chubby/GFS master-failover rule.
        """
        table = self._lease_table
        for gate in table.drain_gates():
            if gate.kind == "update" and gate.meta is not None:
                self._reply_error(gate.meta,
                                  ConnectionLossError("leadership changed"))
        # Fencing keys on the kernel-neutral leadership epoch (Zab
        # epoch / Raft term): 1 is the bootstrap leadership, anything
        # above means an election happened and old grants may be at
        # large on clients of the previous leader.
        epoch = self.broadcast.leadership_epoch
        fence = self.broadcast.is_leader and epoch > 1
        table.reset_for_leadership(epoch, self.env.now, fence)

    # -- final stage (every replica) ----------------------------------------

    def _on_deliver(self, record: TxnRecord) -> None:
        obs = self.env.obs
        if (obs is not None and record.meta is not None
                and record.meta.origin_replica == self.node_id):
            obs.tracer.mark(record.meta.client_node, record.meta.xid,
                            M_DELIVER, self.env.now, self.node_id,
                            epoch=self.broadcast.leadership_epoch,
                            zxid=record.zxid)
        result, error, events = self._apply(record)
        if record.zxid > self._applied_zxid:
            self._applied_zxid = record.zxid
        self._drain_parked_reads()
        work = self.cpu.submit(self.timings.apply_ms)
        work.add_callback(
            lambda _e: self._after_apply(record, result, error, events))

    def _apply(self, record: TxnRecord
               ) -> Tuple[Any, Optional[ZkError], List[StateEvent]]:
        """Mutate replicated state; returns (result, error, state events)."""
        txn = record.txn
        now = self.env.now
        events: List[StateEvent] = []
        try:
            if isinstance(txn, ErrorTxn):
                from .errors import from_code
                return (None, from_code(txn.code, txn.message), events)
            if isinstance(txn, CreateSessionTxn):
                session_id = record.zxid
                self.sessions.create(session_id, txn.timeout_ms, txn.client_id)
                if self.broadcast.is_leader:
                    self.heartbeats.track(session_id, txn.timeout_ms, now)
                if record.meta is not None and record.meta.origin_replica == self.node_id:
                    self.local_sessions[session_id] = record.meta.client_node
                return (session_id, None, events)
            if isinstance(txn, CloseSessionTxn):
                self._close_session(txn.session_id, events)
                return (True, None, events)
            result = _apply_txn_to_tree(self.tree, txn, record.zxid, now,
                                        events=events)
            if record.meta is not None:
                for event in events:
                    event.origin_session = record.meta.session_id
            return (result, None, events)
        except ZkError as error:
            # Should not happen (prep validated); surface as an error reply.
            return (None, error, events)

    def _close_session(self, session_id: int, events: List[StateEvent]) -> None:
        if session_id not in self.sessions:
            # Duplicate CloseSessionTxn (a pre-guard leader's expiry
            # sweep racing a client close): the reap already happened,
            # applying again must be a no-op so ephemerals are deleted
            # exactly once.
            return
        self.sessions.close(session_id)
        self.heartbeats.forget(session_id)
        self.read_floors.forget(session_id)
        doomed = self.tree.kill_session(session_id)
        for path in doomed:
            events.append(StateEvent(EventType.NODE_DELETED, path))
        self.watches.remove_session(session_id)
        self.local_sessions.pop(session_id, None)

    def _after_apply(self, record: TxnRecord, result: Any,
                     error: Optional[ZkError],
                     events: List[StateEvent]) -> None:
        if not self._alive:
            return
        # 1. Event extensions (leader executes; every replica may suppress).
        if self.event_hook is not None and events:
            self.event_hook(events, self)
        # 2. Watches + deferred block replies for locally-connected clients.
        self._fire_watches(events, record.zxid)
        # 3. Reply to the originating client.
        meta = record.meta
        if meta is None or meta.origin_replica != self.node_id:
            return
        blocked = isinstance(record.txn, MultiTxn) and any(
            effect[0] == "block" for effect in record.txn.effects)
        if blocked:
            for effect in record.txn.effects:
                if effect[0] == "block":
                    self._register_deferred_block(meta, effect[1])
            return
        if error is not None:
            self._reply_error(meta, error)
        else:
            value = result
            if isinstance(record.txn, MultiTxn) and record.txn.payload_set:
                value = record.txn.result_payload
            if self.config.local_reads:
                # The write's zxid becomes the session's read floor, so a
                # subsequent read at any replica observes this write.
                # (session_id 0 = a CreateSession request: the floor
                # belongs to the new session, carried by the client.)
                if meta.session_id:
                    self.read_floors.note(meta.session_id, record.zxid)
                self._reply(meta.client_node,
                            ZxidReply(meta.xid, True, value, zxid=record.zxid))
                return
            self._reply(meta.client_node, ClientReply(meta.xid, True, value))

    def _register_deferred_block(self, meta: RequestMeta, path: str) -> None:
        """Defer the reply to ``meta`` until ``path`` is created.

        If the path already exists (the event raced the registration), the
        reply goes out immediately — the paper's block() semantics.
        """
        if self.tree.exists(path) is not None:
            self._reply(meta.client_node,
                        ClientReply(meta.xid, True, ("unblocked", path)))
            return
        self._deferred_blocks.setdefault(path, []).append(
            (meta.session_id, meta.xid, meta.client_node))

    def _fire_watches(self, events: List[StateEvent], zxid: int = 0) -> None:
        notifications: List[Tuple[int, WatchEvent]] = []
        for event in events:
            notifications.extend(
                self.watches.trigger(event.path, event.event_type))
            if event.event_type in (EventType.NODE_CREATED,
                                    EventType.NODE_DELETED):
                parent, _ = split_path(event.path)
                notifications.extend(self.watches.trigger_children(parent))
            if event.event_type is EventType.NODE_CREATED:
                for session_id, xid, client in self._deferred_blocks.pop(
                        event.path, ()):
                    self._reply(client, ClientReply(
                        xid, True, ("unblocked", event.path)))
        for session_id, watch_event in notifications:
            if (self.notification_filter is not None
                    and self.notification_filter(session_id, watch_event)):
                continue
            client = self.local_sessions.get(session_id)
            if client is None:
                continue
            self.stats["watch_deliveries"] += 1
            if self.config.local_reads:
                # Stamp the triggering txn's zxid so a read issued after
                # the notification (even at another replica) observes the
                # change the client was notified about.
                self._reply(client, ZxidWatchNotification(
                    session_id, watch_event.event_type.value,
                    watch_event.path, zxid=zxid))
                continue
            self._reply(client, WatchNotification(
                session_id, watch_event.event_type.value,
                watch_event.path))

    # -- session expiry (leader duty) ------------------------------------------

    def _expiry_loop(self):
        while True:
            yield self.env.timeout(self.config.expiry_sweep_ms)
            if not self._alive or not self.broadcast.is_leader:
                self._expiry_paused = True
                continue
            if self._expiry_paused:
                # First healthy sweep after a crash or a spell out of
                # leadership: rebase instead of expiring, so clients
                # whose pings had no leader to reach during the election
                # window get one fresh timeout to re-establish.
                self.heartbeats.rebase(self.env.now)
                self._expiry_paused = False
                continue
            for session_id in self.heartbeats.expired(self.env.now):
                self.heartbeats.forget(session_id)
                if (session_id in self.sessions
                        and session_id not in self._closing_sessions):
                    self._closing_sessions.add(session_id)
                    self.sessions.stats["expired"] += 1
                    if (self._lease_table is not None
                            and self._gate_session_close(session_id)):
                        # The close deletes leased ephemerals: it parks
                        # behind revocation like any other write.
                        continue
                    # Spec first: _apply_to_spec stamps with the zxid
                    # the propose() right after it will assign.
                    self._apply_to_spec(CloseSessionTxn(session_id))
                    self.broadcast.propose(CloseSessionTxn(session_id), None)

    # -- introspection (four-letter words) -----------------------------------

    def counters(self):
        """This replica's counted facts as ``(name, node, value)``."""
        node = self.node_id
        tables = [("zk", self.stats), ("sessions", self.sessions.stats)]
        if self._lease_table is not None:
            tables.append(("leases", self._lease_table.stats))
        for prefix, stats in tables:
            for key, value in stats.items():
                yield f"{prefix}.{key}", node, value
        yield from self.broadcast.counters()

    def _four_letter(self, command: str) -> str:
        """Answer one diagnostic command (``ruok``/``stat``/``mntr``/``wchs``).

        Mirrors ZooKeeper's four-letter words: plain text, answerable by
        any live replica, describing only *this* replica's view.
        """
        if command == "ruok":
            return "imok"
        role = ("observer" if self.is_observer
                else "leader" if self.broadcast.is_leader else "follower")
        if command == "stat":
            lines = [
                f"node: {self.node_id}",
                f"mode: {role}",
                f"kernel: {self.config.kernel}",
                f"epoch: {self.broadcast.leadership_epoch}",
                f"zxid: {self._applied_zxid:#x}",
                f"sessions: {len(self.sessions)}",
                f"parked_reads: {len(self._parked_reads)}",
            ]
            return "\n".join(lines)
        if command == "mntr":
            lines = [
                f"zk_server_state\t{role}",
                f"zk_applied_zxid\t{self._applied_zxid}",
                f"zk_epoch\t{self.broadcast.leadership_epoch}",
                f"zk_sessions\t{len(self.sessions)}",
            ]
            lines += MetricsRegistry(
                network_counters(self.net)).mntr_lines(self.node_id)
            return "\n".join(lines)
        if command == "wchs":
            paths, total = self.watches.counts()
            return f"{paths} paths watched\nTotal watches: {total}"
        return f"unknown command: {command!r}"

    # -- replies -----------------------------------------------------------

    def _reply(self, client_node: str, payload: object) -> None:
        obs = self.env.obs
        if obs is not None and isinstance(payload, ClientReply):
            # Watch pushes are keyed by session, not xid — only request
            # replies close a trace's server-side span.
            obs.tracer.mark(client_node, payload.xid, M_REPLY,
                            self.env.now, self.node_id)
        self.net.send(self.node_id, client_node, payload)

    def _reply_error(self, meta: RequestMeta, error: ZkError) -> None:
        self._reply(meta.client_node, ClientReply(
            meta.xid, False, None, to_code(error), str(error)))


# ---------------------------------------------------------------------------
# Shared txn application
# ---------------------------------------------------------------------------

def _copy_tree(tree: DataTree) -> DataTree:
    copy = DataTree()
    copy.restore(tree.snapshot())
    return copy


def _apply_txn_to_tree(tree: DataTree, txn: Txn, zxid: int, now: float,
                       events: Optional[List[StateEvent]] = None) -> Any:
    """Apply one txn; optionally collect state events. Returns the result."""
    if isinstance(txn, CreateTxn):
        actual = tree.create(txn.path, txn.data,
                             ephemeral_owner=txn.ephemeral_owner,
                             zxid=zxid, now=now)
        if events is not None:
            events.append(StateEvent(EventType.NODE_CREATED, actual, txn.data))
        return actual
    if isinstance(txn, SetDataTxn):
        stat = tree.set_data(txn.path, txn.data, version=-1, zxid=zxid, now=now)
        if events is not None:
            events.append(StateEvent(EventType.NODE_DATA_CHANGED, txn.path,
                                     txn.data))
        return stat
    if isinstance(txn, DeleteTxn):
        tree.delete(txn.path, version=-1)
        if events is not None:
            events.append(StateEvent(EventType.NODE_DELETED, txn.path))
        return None
    if isinstance(txn, MultiTxn):
        results = [
            _apply_txn_to_tree(tree, sub, zxid, now, events=events)
            for sub in txn.txns
        ]
        return results
    if isinstance(txn, CreateSessionTxn):
        return None  # session txns are handled by the server, not the tree
    if isinstance(txn, CloseSessionTxn):
        tree.kill_session(txn.session_id)
        return None
    raise ZkError(f"unknown txn: {txn!r}")
