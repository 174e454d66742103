"""ZooKeeper client library for simulated clients.

All calls are generator-based: recipe code runs inside a simulation
process and writes ``value = yield from client.get_data(path)`` — the
same shape as the paper's blocking pseudocode.

The library handles session establishment, request/reply matching,
timeouts with fail-over to another replica, watch-event dispatch, and
tracked keep-alive pings.

Every client runs a session lifecycle state machine (CONNECTING →
CONNECTED → SUSPENDED → EXPIRED/CLOSED): on connection loss it fails
over with the shared :mod:`repro.core.retry` backoff, re-establishes
the session at another replica carrying the last-seen zxid, and
*re-registers its armed watches* — comparing the server's state
against what was known when each watch was armed, and synthesizing the
notification for any event that fired while the client was cut off.
So a client can wait on a watch indefinitely without losing events to
a crashed replica.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from ..core.retry import ZK_RETRY_POLICY, RetryPolicy
from ..sim import Environment, Event, Network
from .data_tree import Stat
from .errors import ConnectionLossError, SessionExpiredError, from_code
from .leases import (CACHE_MISS, ClientReadCache, LeaseClientRequest,
                     LeasedReply, LeaseRelease, LeaseRevoke, LeaseRevokeAck)
from .txn import (ClientReply, ClientRequest, CloseSessionOp, CreateOp,
                  CreateSessionOp, DeleteOp, ExistsOp, GetChildrenOp,
                  GetDataOp, MultiOp, Op, PingOp, SetDataOp, SyncOp,
                  WatchNotification, ZxidClientRequest,
                  ZxidWatchNotification)
from .watches import EventType

__all__ = ["ZkClient", "SessionState"]

_DEFAULT_TIMEOUT_MS = 3000.0

#: Sentinel delivered to a pending call when its timer expires first.
_TIMED_OUT = object()

#: How often a call with no deadline (a blocking primitive) probes its
#: replica's liveness — the stand-in for TCP noticing a broken socket.
_BLOCK_PROBE_MS = 500.0

#: Per-attempt deadline for session re-establishment probes: short, so
#: a reconnecting client walks the replica list quickly.
_REARM_TIMEOUT_MS = 1000.0


class SessionState(str, enum.Enum):
    """Client-side session lifecycle (ZooKeeper's state machine)."""

    CONNECTING = "CONNECTING"   # no session yet (or re-connecting it)
    CONNECTED = "CONNECTED"     # session live, replica answering
    SUSPENDED = "SUSPENDED"     # replica unreachable; session may survive
    EXPIRED = "EXPIRED"         # server fenced us; session is gone
    CLOSED = "CLOSED"           # client closed (or was killed) locally


class ZkClient:
    """One client endpoint; owns a session once :meth:`connect` completes."""

    def __init__(self, env: Environment, net: Network, node_id: str,
                 replicas: List[str], replica: Optional[str] = None,
                 session_timeout_ms: float = 2000.0,
                 track_zxid: bool = False,
                 retry: Optional[RetryPolicy] = None,
                 cached_reads: bool = False):
        self.env = env
        self.net = net
        self.node_id = node_id
        self.replicas = list(replicas)
        self.replica = replica or self.replicas[0]
        self.session_timeout_ms = session_timeout_ms
        self.session_id: Optional[int] = None

        #: Session consistency (pair with ZkConfig.local_reads): stamp
        #: requests with the highest zxid this session has seen, so a
        #: lagging replica parks our reads instead of serving stale state.
        self.track_zxid = track_zxid
        self.last_zxid = 0
        self.retry = retry or ZK_RETRY_POLICY
        # String-seeded so backoff jitter is deterministic per client
        # across processes (hash() of a str is salted per interpreter).
        self._backoff = self.retry.start(f"zkclient-backoff-{node_id}")

        #: Session lifecycle: state machine, listeners, and the
        #: bookkeeping reconnect needs.
        self.state = SessionState.CONNECTING
        self.session_listeners: List[Callable[[SessionState], None]] = []
        #: armed-watch bookkeeping for reconnect re-registration:
        #: ("data", path) -> (existed, mzxid) / ("child", path) -> names.
        self._watch_meta: Dict[Tuple[str, str], tuple] = {}
        self._reconnecting = False
        self._abandoned = False
        self._ping_xids: set = set()
        self._last_pong = 0.0

        #: Lease-protected read cache (pair with ``ZkConfig.leases``):
        #: hot-key ``get_data``/``exists`` answers are kept locally under
        #: a leader-granted lease and served at 0 RTT until the lease
        #: expires, is revoked, or any session hiccup flushes the cache.
        self.cached_reads = cached_reads
        self._cache: Optional[ClientReadCache] = (
            ClientReadCache() if cached_reads else None)

        self._xid = 0
        self._pending: Dict[int, Event] = {}
        self._event_waiters: Dict[str, List[Event]] = {}
        self.watch_callbacks: List[Callable[[WatchNotification], None]] = []
        self._closed = False
        net.register(node_id, self._on_message)

    # -- identity ----------------------------------------------------------

    @property
    def client_id(self) -> str:
        """The paper's 'client id': stringified session id."""
        if self.session_id is None:
            raise RuntimeError("client id unknown before connect()")
        return str(self.session_id)

    def counters(self):
        """Read-cache hits, labelled process-wide (node ``""``)."""
        if self._cache is not None:
            yield "client.cache_hits", "", self._cache.stats["hits"]

    # -- inbox -------------------------------------------------------------

    def _on_message(self, src: str, msg: object) -> None:
        if isinstance(msg, ClientReply):
            # .zxid resolves to the class attribute (0) on plain replies,
            # avoiding a getattr-with-default miss per reply.
            zxid = msg.zxid
            if zxid > self.last_zxid:
                self.last_zxid = zxid
            if self._ping_xids and msg.xid in self._ping_xids:
                # Tracked keep-alive: the pong is a liveness signal, and
                # a fenced pong is how a client with no outstanding
                # calls learns its session expired.
                self._ping_xids.discard(msg.xid)
                if msg.ok:
                    self._last_pong = self.env.now
                elif msg.error_code == SessionExpiredError.code:
                    self._set_state(SessionState.EXPIRED)
                return
            future = self._pending.pop(msg.xid, None)
            if future is not None and not future.triggered:
                future.succeed(msg)
        elif isinstance(msg, WatchNotification):
            self._observe_zxid(msg.zxid)
            if self._cache is not None:
                # Watch-invalidation: the pushed change supersedes
                # whatever this client cached for the path.
                self._cache.drop(msg.path)
            if self._watch_meta:
                # The server-side watch is one-shot: it is no longer
                # armed, so drop it from the reconnect re-arm set.
                kind = ("child" if msg.event_type ==
                        EventType.NODE_CHILDREN_CHANGED.value else "data")
                self._watch_meta.pop((kind, msg.path), None)
            self._dispatch_watch(msg)
        elif isinstance(msg, LeaseRevoke):
            if self._cache is not None:
                self._cache.revoke(msg.path, msg.lease_id)
            # Always ack — a writer is blocked on it; an ack for a lease
            # this client never installed (revoke won the race with the
            # grant) is how the leader learns the path is clear.
            self.net.send(self.node_id, src, LeaseRevokeAck(
                self.session_id or 0, msg.path, msg.lease_id))

    def _observe_zxid(self, zxid: int) -> None:
        """Raise the session's last-seen zxid (replies and watch pushes)."""
        if zxid > self.last_zxid:
            self.last_zxid = zxid

    def _dispatch_watch(self, notification: WatchNotification) -> None:
        waiters = self._event_waiters.pop(notification.path, [])
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed(notification)
        for callback in list(self.watch_callbacks):
            callback(notification)

    # -- RPC core ----------------------------------------------------------

    def _expire(self, xid: int, future: Event) -> None:
        """Deliver the timeout sentinel if the call is still outstanding.

        The ``triggered`` check also protects retries that reuse the
        xid: a stale timer holds the *old* future and must not pop the
        replacement from ``_pending``.
        """
        if not future.triggered:
            self._pending.pop(xid, None)
            future.succeed(_TIMED_OUT)

    def _call(self, op: Op, timeout_ms: Optional[float] = _DEFAULT_TIMEOUT_MS):
        """Issue one request; retries on another replica after a timeout."""
        if self._closed:
            raise ConnectionLossError("client closed")
        if self.state is SessionState.EXPIRED \
                and not isinstance(op, CloseSessionOp):
            raise SessionExpiredError("session expired")
        self._xid += 1
        xid = self._xid
        session = self.session_id or 0
        attempts = 0
        loss_retries = 0
        obs = self.env.obs
        tracer = obs.tracer if obs is not None else None
        if tracer is not None:
            tracer.begin(self.node_id, xid, type(op).__name__, self.env.now)
        while True:
            attempts += 1
            if attempts > 1 and tracer is not None:
                tracer.retry(self.node_id, xid, self.env.now)
            future = self.env.event()
            self._pending[xid] = future
            if (self._cache is not None
                    and isinstance(op, (GetDataOp, ExistsOp))
                    and not op.watch):
                # Cacheable read: the marker envelope invites the server
                # to piggyback a lease grant on the reply.
                request: ClientRequest = LeaseClientRequest(
                    session, xid, op, last_zxid=self.last_zxid)
            elif self.track_zxid:
                request = ZxidClientRequest(session, xid, op,
                                            last_zxid=self.last_zxid)
            else:
                request = ClientRequest(session, xid, op)
            self.net.send(self.node_id, self.replica, request)
            if timeout_ms is not None:
                # Deadline as a deferred callback: one slotted Callback
                # instead of a Timeout event plus an AnyOf condition per
                # RPC (this is the client library's hottest line).
                self.env.defer(timeout_ms, self._expire, xid, future)
                reply = yield future
            else:
                reply = yield from self._await_blocking(xid, future, request)
            if reply is _TIMED_OUT:
                # Timed out: assume the replica is gone and fail over.
                if attempts >= 2 * len(self.replicas) + 1:
                    if tracer is not None:
                        tracer.finish(self.node_id, xid, self.env.now, False)
                    raise ConnectionLossError(
                        f"no replica answered after {attempts} attempts")
                self._failover()
                if self.session_id is not None and not self._reconnecting:
                    # Re-establish at the new replica before retrying:
                    # re-arms our watches there and synthesizes any
                    # event that fired while the old replica was gone.
                    try:
                        yield from self._reestablish()
                    except ConnectionLossError:
                        pass    # keep walking the replica list below
                continue
            if not reply.ok:
                if reply.error_code == ConnectionLossError.code:
                    # Replica lost its leader: exponential backoff with
                    # jitter so retry storms don't synchronize during an
                    # election. The first retry keeps the fixed 50 ms
                    # delay; only later (rarer) retries draw jitter.
                    self._set_state(SessionState.SUSPENDED)
                    delay = self._backoff.delay(loss_retries)
                    loss_retries += 1
                    yield self.env.timeout(delay)
                    if attempts >= 2 * len(self.replicas) + 1:
                        if tracer is not None:
                            tracer.finish(self.node_id, xid, self.env.now,
                                          False)
                        raise from_code(reply.error_code, reply.error_message)
                    continue
                if reply.error_code == SessionExpiredError.code:
                    self._set_state(SessionState.EXPIRED)
                if tracer is not None:
                    tracer.finish(self.node_id, xid, self.env.now, False)
                raise from_code(reply.error_code, reply.error_message)
            if self.state is SessionState.SUSPENDED:
                self._set_state(SessionState.CONNECTED)
            self._note_watch(op, reply.value)
            if self._cache is not None:
                self._cache_note(op, reply)
            if tracer is not None:
                tracer.finish(self.node_id, xid, self.env.now, True)
            return reply.value

    def _cache_note(self, op: Op, reply: ClientReply) -> None:
        """Maintain the read cache from a successful reply.

        Installs on a leased read reply; invalidates on this client's
        own writes (the lease protocol only fences *other* clients'
        cached copies — our own must drop immediately); flushes on a
        sync barrier, volunteering the lease ids back so blocked
        writers resume without waiting out the term.
        """
        cache = self._cache
        if isinstance(reply, LeasedReply):
            cache.install(op.path, reply.value, reply, self.env.now)
        elif isinstance(op, (SetDataOp, DeleteOp, CreateOp)):
            cache.drop(op.path)
        elif isinstance(op, MultiOp):
            for sub in op.ops:
                if isinstance(sub, (SetDataOp, DeleteOp, CreateOp)):
                    cache.drop(sub.path)
        elif isinstance(op, SyncOp):
            released = cache.drop_all()
            if released:
                self.net.send(self.node_id, self.replica,
                              LeaseRelease(self.session_id or 0,
                                           tuple(released)))

    def _await_blocking(self, xid: int, future: Event, request) -> object:
        """Wait on a no-deadline (blocking) call, watching the connection.

        Blocking primitives may legitimately wait forever, so they carry
        no per-call timer — but a request lost to a crashed replica or a
        partition would hold the client hostage. Real clients notice the
        broken TCP connection; here the stand-ins are a periodic
        liveness probe of the connected replica (its death is reported
        as a timeout so the caller's retry loop fails over) and a slow
        retransmit of the same request — same xid, so the leader's
        at-most-once guard absorbs the duplicate when the original did
        get through, and re-executed reads are idempotent.
        """
        probes = 0
        while True:
            probe = self.env.timeout(_BLOCK_PROBE_MS)
            yield self.env.any_of([future, probe])
            if future.triggered:
                return future.value
            if self.net.is_crashed(self.replica):
                self._pending.pop(xid, None)
                return _TIMED_OUT
            probes += 1
            if probes % 2 == 0:
                self.net.send(self.node_id, self.replica, request)

    def _failover(self) -> None:
        index = self.replicas.index(self.replica)
        self.replica = self.replicas[(index + 1) % len(self.replicas)]

    # -- session lifecycle -------------------------------------------------

    def _set_state(self, state: SessionState) -> None:
        if state is self.state:
            return
        self.state = state
        if self._cache is not None and state in (SessionState.SUSPENDED,
                                                 SessionState.EXPIRED,
                                                 SessionState.CLOSED):
            # Any session hiccup flushes the cache: a SUSPENDED client
            # may have missed revokes, and an EXPIRED one must never
            # serve another cached byte (the expiry-fencing contract).
            self._cache.drop_all()
        for listener in list(self.session_listeners):
            listener(state)

    def connect(self, client_label: str = ""):
        """Establish a session; starts the keep-alive ping loop."""
        self._set_state(SessionState.CONNECTING)
        session_id = yield from self._call(
            CreateSessionOp(self.session_timeout_ms,
                            client_label or self.node_id))
        self.session_id = session_id
        self._last_pong = self.env.now
        self._set_state(SessionState.CONNECTED)
        self.env.process(self._ping_loop())
        return session_id

    def close(self):
        """Close the session (server reaps ephemerals).

        Tolerates ``SESSION_EXPIRED``: if the leader expired the session
        before the close arrived (or a retried close raced the first
        copy), the server already reaped everything this close would —
        the session is just as gone either way.
        """
        try:
            yield from self._call(CloseSessionOp())
        except SessionExpiredError:
            pass
        finally:
            self._closed = True
            if self.state is not SessionState.EXPIRED:
                self._set_state(SessionState.CLOSED)
        return True

    def kill(self) -> None:
        """Abrupt client death (no session close) for failure-injection tests."""
        self._closed = True
        self._set_state(SessionState.CLOSED)
        self.net.crash(self.node_id)

    def abandon(self) -> None:
        """Stop keep-alive pings while leaving the client usable.

        Models a client whose liveness signal is gone (stalled process,
        dead NAT entry) but whose in-flight requests may still arrive:
        the leader will expire the session and reap its ephemerals, and
        any later call from this client must be *fenced* with
        ``SESSION_EXPIRED`` — never silently applied.
        """
        self._abandoned = True

    def _ping_loop(self):
        interval = self.session_timeout_ms / 3.0
        while (not self._closed and not self._abandoned
                and self.state is not SessionState.EXPIRED):
            self._xid += 1
            xid = self._xid
            # Tracked ping: the pong timestamps replica liveness, so a
            # client parked on a watch (no outstanding request whose
            # timeout would notice) still detects its replica's death
            # and reconnects. The set is pruned so lost pings can't
            # grow it without bound.
            self._ping_xids.add(xid)
            if len(self._ping_xids) > 8:
                self._ping_xids = {x for x in self._ping_xids if x > xid - 64}
            self.net.send(self.node_id, self.replica,
                          ClientRequest(self.session_id or 0, xid, PingOp()))
            yield self.env.timeout(interval)
            if self._closed or self._abandoned:
                return
            if (self.env.now - self._last_pong > 2.0 * interval
                    and not self._reconnecting):
                self._failover()
                try:
                    yield from self._reestablish()
                except ConnectionLossError:
                    continue    # all replicas dark; retry next interval
                except SessionExpiredError:
                    return

    # -- session re-establishment ------------------------------------------

    def _reestablish(self):
        """Re-bind the session to the current replica after a suspicion.

        Walks the replica list with the shared backoff until one
        answers, re-arming every watch this client had armed and
        synthesizing notifications for events missed while cut off.
        Raises ``SessionExpiredError`` if a server fences us (the
        session is gone — EXPIRED is terminal), or
        ``ConnectionLossError`` when no replica answers.
        """
        if self._reconnecting or self.session_id is None or self._closed:
            return
        self._reconnecting = True
        self._set_state(SessionState.SUSPENDED)
        try:
            hops = 0
            while True:
                ok = yield from self._rearm_watches()
                if ok:
                    break
                hops += 1
                if hops > 2 * len(self.replicas):
                    raise ConnectionLossError(
                        "session re-establishment: no replica reachable")
                yield self.env.timeout(self._backoff.delay(hops - 1))
                self._failover()
            self._last_pong = self.env.now
            self._set_state(SessionState.CONNECTED)
        finally:
            self._reconnecting = False

    def _rearm_watches(self):
        """One watch re-registration pass at the current replica.

        Returns False when the replica did not answer (caller fails
        over). For every watch armed before the disconnect, re-issues
        the arming read and compares the server's state against what
        was known at arm time — existence and mzxid for data watches,
        the child-name set for child watches. Any difference means the
        one-shot notification fired while we were cut off, so the
        equivalent event is synthesized locally; otherwise the watch is
        re-armed server-side with refreshed knowledge.
        """
        for (kind, path), known in sorted(self._watch_meta.items()):
            if kind == "data":
                op: Op = ExistsOp(path, watch=True)
            else:
                op = GetChildrenOp(path, watch=True)
            reply = yield from self._probe(op)
            if reply is _TIMED_OUT:
                return False
            if not reply.ok:
                if reply.error_code == SessionExpiredError.code:
                    self._set_state(SessionState.EXPIRED)
                    raise from_code(reply.error_code, reply.error_message)
                if reply.error_code == ConnectionLossError.code:
                    return False
                if kind == "child":
                    # Parent deleted in the gap: its membership changed.
                    self._watch_meta.pop((kind, path), None)
                    self._synthesize(EventType.NODE_CHILDREN_CHANGED, path,
                                     reply.zxid)
                continue
            self._compare_rearmed(kind, path, known, reply)
        if self._watch_meta:
            return True
        # No watches to re-arm: a ping round-trip both confirms the
        # replica answers and re-points our session's notification
        # routing at it (fenced pong => the session is gone).
        reply = yield from self._probe(PingOp())
        if reply is _TIMED_OUT:
            return False
        if not reply.ok:
            if reply.error_code == SessionExpiredError.code:
                self._set_state(SessionState.EXPIRED)
                raise from_code(reply.error_code, reply.error_message)
            return False
        return True

    def _probe(self, op: Op, timeout_ms: float = _REARM_TIMEOUT_MS):
        """One single-attempt raw RPC to the current replica (no retry)."""
        self._xid += 1
        xid = self._xid
        future = self.env.event()
        self._pending[xid] = future
        session = self.session_id or 0
        if self.track_zxid:
            request = ZxidClientRequest(session, xid, op,
                                        last_zxid=self.last_zxid)
        else:
            request = ClientRequest(session, xid, op)
        self.net.send(self.node_id, self.replica, request)
        self.env.defer(timeout_ms, self._expire, xid, future)
        reply = yield future
        return reply

    def _compare_rearmed(self, kind: str, path: str, known: tuple,
                         reply) -> None:
        """Diff the re-armed read against arm-time knowledge."""
        value = reply.value
        if kind == "data":
            existed, mzxid = known
            if value is None:
                if existed:
                    self._watch_meta.pop((kind, path), None)
                    self._synthesize(EventType.NODE_DELETED, path,
                                     reply.zxid)
                else:
                    self._watch_meta[(kind, path)] = (False, 0)
            elif isinstance(value, Stat):
                if not existed:
                    self._watch_meta.pop((kind, path), None)
                    self._synthesize(EventType.NODE_CREATED, path,
                                     reply.zxid)
                elif value.mzxid > mzxid:
                    self._watch_meta.pop((kind, path), None)
                    self._synthesize(EventType.NODE_DATA_CHANGED, path,
                                     reply.zxid)
                else:
                    self._watch_meta[(kind, path)] = (True, value.mzxid)
            else:
                # An operation extension consumed the re-arm (e.g. an
                # ('unblocked', path) payload): no server-side watch was
                # armed, and the path the client was waiting on exists.
                self._watch_meta.pop((kind, path), None)
                if not existed:
                    self._synthesize(EventType.NODE_CREATED, path,
                                     reply.zxid)
        else:
            if not isinstance(value, (list, tuple)):
                self._watch_meta.pop((kind, path), None)
                return
            names = tuple(value)
            if names != known:
                self._watch_meta.pop((kind, path), None)
                self._synthesize(EventType.NODE_CHILDREN_CHANGED, path,
                                 reply.zxid)
            else:
                self._watch_meta[(kind, path)] = names

    def _synthesize(self, event_type: EventType, path: str,
                    zxid: int) -> None:
        """Deliver a locally-manufactured notification for a missed event."""
        self._observe_zxid(zxid)
        session = self.session_id or 0
        if zxid:
            note: WatchNotification = ZxidWatchNotification(
                session, event_type.value, path, zxid=zxid)
        else:
            note = WatchNotification(session, event_type.value, path)
        self._dispatch_watch(note)

    def _note_watch(self, op: Op, value) -> None:
        """Record arm-time knowledge for a read that set a watch.

        Values that are not plain read results (an operation extension
        consumed the call) are skipped: no server-side watch was armed.
        """
        if isinstance(op, ExistsOp) and op.watch:
            if value is None:
                self._watch_meta[("data", op.path)] = (False, 0)
            elif isinstance(value, Stat):
                self._watch_meta[("data", op.path)] = (True, value.mzxid)
        elif isinstance(op, GetDataOp) and op.watch:
            if (isinstance(value, tuple) and len(value) == 2
                    and isinstance(value[1], Stat)):
                self._watch_meta[("data", op.path)] = (True, value[1].mzxid)
        elif isinstance(op, GetChildrenOp) and op.watch:
            if isinstance(value, (list, tuple)):
                self._watch_meta[("child", op.path)] = tuple(value)

    # -- ZooKeeper API -------------------------------------------------------

    def create(self, path: str, data: bytes = b"", ephemeral: bool = False,
               sequential: bool = False):
        """Create a znode; returns the actual (suffix-resolved) path."""
        value = yield from self._call(
            CreateOp(path, data, ephemeral, sequential))
        return value

    def delete(self, path: str, version: int = -1):
        """Delete a znode (conditional when ``version`` >= 0)."""
        yield from self._call(DeleteOp(path, version))
        return True

    def set_data(self, path: str, data: bytes, version: int = -1):
        """Overwrite znode data; returns the new Stat."""
        value = yield from self._call(SetDataOp(path, data, version))
        return value

    def get_data(self, path: str, watch: bool = False):
        """Read znode data; returns (data, Stat)."""
        if self._cache is not None and not watch:
            hit = self._cache.data(path, self.env.now)
            if hit is not CACHE_MISS:
                # 0 RTT: a sliver of local CPU, no network.
                yield self.env.timeout(self._cache.hit_cost_ms)
                return hit
        value = yield from self._call(GetDataOp(path, watch))
        return value

    def get_children(self, path: str, watch: bool = False):
        """List child names (sorted)."""
        value = yield from self._call(GetChildrenOp(path, watch))
        return value

    def exists(self, path: str, watch: bool = False):
        """Stat if the node exists, else None (optionally arming a watch)."""
        if self._cache is not None and not watch:
            hit = self._cache.stat(path, self.env.now)
            if hit is not CACHE_MISS:
                yield self.env.timeout(self._cache.hit_cost_ms)
                return hit
        value = yield from self._call(ExistsOp(path, watch))
        return value

    def multi(self, ops: List[Op]):
        """Atomic batch of update operations."""
        value = yield from self._call(MultiOp(list(ops)))
        return value

    def sync(self):
        """Flush to the leader; returns its committed zxid (no txn).

        For a zxid-tracking client the reply raises ``last_zxid`` to the
        leader's commit point, so the *next* local read observes every
        write that committed before the sync — ZooKeeper's recipe for a
        linearizable read (``sync(); read()``).
        """
        value = yield from self._call(SyncOp())
        return value

    # -- blocking / notification helpers --------------------------------------

    def wait_for_event(self, path: str) -> Event:
        """Future resolved by the next watch notification for ``path``."""
        waiter = self.env.event()
        self._event_waiters.setdefault(path, []).append(waiter)
        return waiter

    def discard_waiter(self, path: str, waiter: Event) -> None:
        waiters = self._event_waiters.get(path)
        if waiters and waiter in waiters:
            waiters.remove(waiter)
            if not waiters:
                del self._event_waiters[path]

    def await_notification(self, path: str, waiter: Event,
                           deadline: Optional[Event] = None):
        """Wait for ``waiter`` (a :meth:`wait_for_event` future).

        Reconnect re-arms the watch set and synthesizes missed events,
        so the watch alone is safe to wait on. The periodic probe only
        checks replica health (a crashed replica can't push
        notifications) and triggers re-establishment. Returns the
        notification, or None if the session expires, the client
        closes, or ``deadline`` fires first — the watch then stays armed
        server-side, so callers must tolerate a later notification.
        """
        while True:
            probe = self.env.timeout(_BLOCK_PROBE_MS)
            events = [waiter, probe]
            if deadline is not None:
                events.append(deadline)
            yield self.env.any_of(events)
            if waiter.triggered:
                return waiter.value
            if deadline is not None and deadline.triggered:
                return None
            if self.state is SessionState.EXPIRED or self._closed:
                return None
            if self.net.is_crashed(self.replica) and not self._reconnecting:
                self._failover()
                try:
                    yield from self._reestablish()
                except ConnectionLossError:
                    continue
                except SessionExpiredError:
                    return None

    def block(self, path: str):
        """Wait until ``path`` exists (Table 2's ``block`` primitive).

        Traditional path: exists-with-watch, then wait for the creation
        notification. When an operation extension consumes the exists
        call, the server defers the reply instead (same client code).
        """
        while True:
            waiter = self.wait_for_event(path)
            result = yield from self._call(ExistsOp(path, watch=True),
                                           timeout_ms=None)
            if result is not None:
                # Either the node already exists (Stat) or an extension
                # unblocked us directly (('unblocked', path) payload).
                self.discard_waiter(path, waiter)
                return result
            notification = yield from self.await_notification(path, waiter)
            self.discard_waiter(path, waiter)
            if notification is not None:
                return notification
            # Session expired or client closed mid-wait: the re-issued
            # exists call raises the matching error.
