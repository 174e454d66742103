"""A DepSpace replica: the layer stack of the paper's Figure 4.

From the bottom up: BFT ordering → **extension manager slot** (EDS hooks
in here; plain DepSpace passes straight through) → policy enforcement →
access control → tuple space. Every replica executes every ordered
request deterministically and replies; clients mask up to ``f``
Byzantine answers by voting.

Blocking semantics: ``rd``/``in`` with no match register a waiter (in
delivery order, identically at every correct replica); each insertion
re-evaluates waiters. EDS's event extensions can veto an unblock
(``unblock_filter``), making the operation block again (§5.2.2).

Client failure detection: tuples inserted with a lease expire unless
renewed; expiry is evaluated deterministically against the **agreed
timestamp** each ordered request carries, so all correct replicas purge
the same tuples at the same logical instant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.broadcast import DS_KERNELS
from ..core.errors import ExtensionError
from ..obs import (M_INGRESS, M_REPLY, FourLetterReply, FourLetterRequest,
                   MetricsRegistry, Observability, ObsConfig,
                   network_counters)
from ..raft import RaftConfig
from ..sim import Environment, FifoResource, Network
from .access import AccessControl, AccessDeniedError
from .bft import BftConfig, BftPeer, BftRequest, RequestId
from .ordering import RaftOrdering
from .policy import Policy, PolicyViolationError
from .protocol import (CasOp, DsOp, DsReply, InOp, InpOp, OutOp, RdAllOp,
                       RdOp, RdpOp, RenewOp, ReplaceOp, StateRequest,
                       StateResponse)
from .space import LeaseRecord, TupleSpace
from .tuples import BadTupleError, TupleSpaceError

__all__ = ["DsTimings", "DsConfig", "DsReplica", "DsEvent", "Waiter", "BLOCKED"]


@dataclass
class DsTimings:
    """Per-request CPU service times (ms) at one replica.

    BFT processing is more expensive than crash-tolerant processing
    (MAC verification on every protocol message); ``order_ms`` bundles
    that per-request protocol cost.
    """

    verify_ms: float = 0.015      # request authentication on arrival
    order_ms: float = 0.03        # per-request share of the 3-phase protocol
    execute_ms: float = 0.02      # tuple-space execution
    extension_exec_ms: float = 0.015
    fast_read_ms: float = 0.02    # unordered read-only execution


@dataclass
class DsConfig:
    timings: DsTimings = field(default_factory=DsTimings)
    bft: BftConfig = field(default_factory=BftConfig)
    lease_ms: float = 2000.0
    #: BFT-SMaRt's read-only optimization: rdp/rdAll answered directly
    #: from local state without ordering; clients then need 2f+1 (not
    #: f+1) matching replies. Off by default — the paper's DepSpace
    #: numbers are reproduced without it (see the ablation benchmark).
    unordered_reads: bool = False
    #: ordering kernel: ``"pbft"`` (default, Byzantine fault tolerant)
    #: or ``"raft"`` (crash-only, see :mod:`repro.depspace.ordering`).
    kernel: str = "pbft"
    #: Raft kernel tuning when ``kernel="raft"`` (None = defaults).
    raft: Optional[RaftConfig] = None
    #: request tracing (see ``repro.obs``). None (the default) leaves
    #: ``env.obs`` unset: no milestone fires and simulated behaviour is
    #: byte-identical to an unobserved run. Counts and ``mntr`` do not
    #: depend on it.
    obs: Optional[ObsConfig] = None


@dataclass
class DsEvent:
    """State-change event for EDS event extensions."""

    kind: str                     # "inserted" | "removed" | "expired"
    space: str
    entry: Tuple[Any, ...]


@dataclass
class Waiter:
    """A blocked rd/in registered deterministically at every replica."""

    request_id: RequestId
    op: DsOp
    take: bool                    # True for in, False for rd


#: Sentinel result: the operation blocked; no reply goes out yet.
BLOCKED = object()


class DsReplica:
    """One replica of the (extensible-ready) DepSpace service."""

    def __init__(self, env: Environment, net: Network, node_id: str,
                 replica_ids: List[str], config: Optional[DsConfig] = None):
        self.env = env
        self.net = net
        self.node_id = node_id
        self.replica_ids = list(replica_ids)
        self.config = config or DsConfig()
        self.timings = self.config.timings

        self.spaces: Dict[str, TupleSpace] = {"main": TupleSpace()}
        self.policies: Dict[str, Policy] = {}
        self.acls: Dict[str, AccessControl] = {}
        self._waiters: Dict[str, List[Waiter]] = {}
        self.cpu = FifoResource(env, name=f"{node_id}.cpu")
        #: last reply per client, resent on duplicate requests.
        self._reply_cache: Dict[str, DsReply] = {}

        kernel = getattr(self.config, "kernel", "pbft")
        if kernel == "pbft":
            self.ordering = BftPeer(env, node_id, replica_ids,
                                    send=self._bft_send,
                                    execute=self._execute_request,
                                    config=self.config.bft,
                                    send_many=self._bft_send_many)
        elif kernel == "raft":
            self.ordering = RaftOrdering(env, node_id, replica_ids,
                                         send=self._bft_send,
                                         execute=self._execute_request,
                                         config=self.config.bft,
                                         raft_config=self.config.raft,
                                         send_many=self._bft_send_many)
        else:
            raise ValueError(f"unknown kernel {kernel!r} (expected one "
                             f"of {DS_KERNELS})")
        self.ordering.on_gap = self._on_gap

        # EDS hooks (wired by repro.eds; None = plain DepSpace).
        #: (request, ts, replica, events) -> None | (consumed, value);
        #: value may be BLOCKED to suppress the reply.
        self.op_interceptor: Optional[
            Callable[[BftRequest, float, "DsReplica", List["DsEvent"]],
                     Optional[tuple]]] = None
        self.unblock_filter: Optional[
            Callable[[Waiter, Tuple[Any, ...], float, "DsReplica"], bool]] = None
        self.event_hook: Optional[
            Callable[[List[DsEvent], float, "DsReplica"], None]] = None
        #: called after a state-transfer install (EDS rebuilds its
        #: extension registry from the _em space, §3.8).
        self.on_state_installed: Optional[Callable[["DsReplica"], None]] = None
        #: (client_id, op) -> True when a read must be ordered anyway
        #: (EDS: an operation extension would consume it).
        self.read_router: Optional[Callable[[str, DsOp], bool]] = None

        #: request-intake counts (see :meth:`counters`).
        self.stats = {"requests": 0, "fast_reads": 0, "ordered": 0}
        if self.config.obs is not None:
            Observability.install(env, self.config.obs, net)

        #: fault-injection: corrupt every reply (Byzantine behaviour).
        self.byzantine = False
        self._alive = True
        self._state_synced = True
        self._resync_generation = 0
        net.register(node_id, self.handle_message)

    # -- administration ----------------------------------------------------

    @property
    def bft(self):
        """Back-compat alias: the ordering kernel endpoint (historically
        always a :class:`BftPeer`; ``kernel="raft"`` makes it a
        :class:`~repro.depspace.ordering.RaftOrdering`)."""
        return self.ordering

    def space(self, name: str = "main") -> TupleSpace:
        if name not in self.spaces:
            self.spaces[name] = TupleSpace()
        return self.spaces[name]

    def set_policy(self, space: str, policy: Policy) -> None:
        self.policies[space] = policy

    def set_acl(self, space: str, acl: AccessControl) -> None:
        self.acls[space] = acl

    # -- fault injection ---------------------------------------------------

    def crash(self) -> None:
        self._alive = False
        self.net.crash(self.node_id)
        self.ordering.crash()

    def recover(self) -> None:
        self._alive = True
        self.net.recover(self.node_id)
        self.ordering.recover()
        if self.config.kernel != "pbft":
            return  # the Raft leader backfills recovered replicas itself
        self._resync_generation += 1
        self.env.process(self._resync_loop(self._resync_generation))

    def _resync_loop(self, generation: int):
        """Retransmit StateRequest round-robin until a peer answers.

        A single-shot probe to a fixed peer is lost forever when that
        peer is itself crashed or partitioned away — the recovering
        replica would then stall behind the pipeline (missed slots
        never execute) while still counting as "live" for consistency
        checks. Rotating the target and retrying until a snapshot
        lands bounds the stall at however long the fault window keeps
        every eligible donor unreachable; the loop must not give up
        earlier, because an unsynced replica neither executes nor
        serves state.
        """
        peers = [p for p in self.replica_ids if p != self.node_id]
        self._state_synced = False
        attempt = 0
        while (self._alive and not self._state_synced
               and generation == self._resync_generation):
            self.net.send(self.node_id, peers[attempt % len(peers)],
                          StateRequest(self.ordering._exec_seq))
            attempt += 1
            yield self.env.timeout(self.config.bft.request_timeout_ms)

    def _any_peer(self) -> str:
        return next(p for p in self.replica_ids if p != self.node_id)

    # -- wiring ------------------------------------------------------------

    def _bft_send(self, dst: str, msg: object) -> None:
        self.net.send(self.node_id, dst, msg)

    def _bft_send_many(self, dsts, msg: object) -> None:
        # Fan-out path: size the payload once for the whole broadcast.
        self.net.broadcast(self.node_id, dsts, msg)

    def handle_message(self, src: str, msg: object) -> None:
        if not self._alive:
            return
        if isinstance(msg, BftRequest):
            self._on_client_request(src, msg)
            return
        if isinstance(msg, StateRequest):
            self._on_state_request(src, msg)
            return
        if isinstance(msg, StateResponse):
            self._on_state_response(src, msg)
            return
        if isinstance(msg, FourLetterRequest):
            self.net.send(self.node_id, src,
                          FourLetterReply(msg.xid, msg.command,
                                          self._four_letter(msg.command)))
            return
        self.ordering.handle(src, msg)

    # -- request intake ----------------------------------------------------

    def _on_client_request(self, src: str, request: BftRequest) -> None:
        self.stats["requests"] += 1
        obs = self.env.obs
        if obs is not None:
            obs.tracer.mark(request.request_id.client_id,
                            request.request_id.seq, M_INGRESS,
                            self.env.now, self.node_id)
        if self._is_fast_read(request):
            work = self.cpu.submit(self.timings.verify_ms
                                   + self.timings.fast_read_ms)
            work.add_callback(lambda _e: self._execute_fast_read(request))
            return
        if request.request_id in self.ordering._executed_ids:
            cached = self._reply_cache.get(request.request_id.client_id)
            if (cached is not None and cached.request_key
                    == (request.request_id.client_id, request.request_id.seq)):
                self.net.send(self.node_id, src, cached)
            return
        work = self.cpu.submit(self.timings.verify_ms + self.timings.order_ms)
        work.add_callback(lambda _e: self.ordering.on_request(request))

    def _is_fast_read(self, request: BftRequest) -> bool:
        if not self.config.unordered_reads:
            return False
        op = request.op
        if not isinstance(op, (RdpOp, RdAllOp)):
            return False
        if self.read_router is not None and self.read_router(
                request.request_id.client_id, op):
            return False  # an extension consumes it: order normally
        return True

    def _execute_fast_read(self, request: BftRequest) -> None:
        """BFT-SMaRt read-only path: answer from local state, unordered.

        Correct replicas converge on ordered state, so 2f+1 matching
        replies (collected by the client) guarantee a value at least as
        fresh as the latest completed write.
        """
        if not self._alive:
            return
        self.stats["fast_reads"] += 1
        client_id = request.request_id.client_id
        op = request.op
        try:
            space = self.space(op.space)
            if isinstance(op, RdpOp):
                self._check_layers("rdp", client_id, op.template, op.space)
                value = space.rdp(op.template)
            else:
                self._check_layers("rdall", client_id, op.template, op.space)
                value = space.rdall(op.template)
        except (TupleSpaceError, AccessDeniedError,
                PolicyViolationError) as error:
            self._reply_error(request.request_id, error, cache=False)
            return
        self._reply(request.request_id, value, cache=False)

    # -- ordered execution ------------------------------------------------------

    def _execute_request(self, request: BftRequest, ts: float) -> None:
        work = self.cpu.submit(self.timings.execute_ms)
        work.add_callback(lambda _e: self._execute_now(request, ts))

    def _execute_now(self, request: BftRequest, ts: float) -> None:
        if not self._alive:
            return
        self.stats["ordered"] += 1
        client_id = request.request_id.client_id
        op = request.op
        events: List[DsEvent] = []
        self._purge_leases(ts, events)

        if self.op_interceptor is not None:
            try:
                intercepted = self.op_interceptor(request, ts, self, events)
            except (TupleSpaceError, AccessDeniedError,
                    PolicyViolationError, ExtensionError) as error:
                self._reply_error(request.request_id, error)
                self._post_execute(events, ts)
                return
            if intercepted is not None:
                consumed, value = intercepted
                if consumed:
                    if value is not BLOCKED:
                        self._reply(request.request_id, value)
                    self._post_execute(events, ts)
                    return

        try:
            value = self._execute_op(client_id, op, ts, events,
                                     request_id=request.request_id)
        except (TupleSpaceError, AccessDeniedError,
                PolicyViolationError) as error:
            self._reply_error(request.request_id, error)
            self._post_execute(events, ts)
            return
        if value is not BLOCKED:
            self._reply(request.request_id, value)
        self._post_execute(events, ts)

    def _post_execute(self, events: List[DsEvent], ts: float) -> None:
        if self.event_hook is not None and events:
            self.event_hook(list(events), ts, self)

    # -- the layer stack ---------------------------------------------------------

    def _check_layers(self, op_name: str, client_id: str,
                      argument, space_name: str) -> None:
        """Policy enforcement, then access control (Figure 4 order)."""
        policy = self.policies.get(space_name)
        if policy is not None:
            policy.check(op_name, client_id, argument,
                         self.space(space_name))
        acl = self.acls.get(space_name)
        if acl is not None:
            acl.check(op_name, client_id)

    def _execute_op(self, client_id: str, op: DsOp, ts: float,
                    events: List[DsEvent],
                    request_id: Optional[RequestId] = None,
                    wake: bool = True) -> Any:
        """Run one operation through policy -> access -> tuple space.

        EDS extensions call this too (their ops run with the invoking
        client's privileges — the paper's sandbox requirement).
        """
        space = self.space(op.space)
        if isinstance(op, OutOp):
            self._check_layers("out", client_id, op.entry, op.space)
            lease = self._lease_for(client_id, op.lease_ms, ts)
            space.out(op.entry, lease=lease)
            events.append(DsEvent("inserted", op.space, tuple(op.entry)))
            if wake:
                self._wake_waiters(op.space, ts, events)
            return True
        if isinstance(op, RdpOp):
            self._check_layers("rdp", client_id, op.template, op.space)
            return space.rdp(op.template)
        if isinstance(op, InpOp):
            self._check_layers("inp", client_id, op.template, op.space)
            taken = space.inp(op.template)
            if taken is not None:
                events.append(DsEvent("removed", op.space, taken))
            return taken
        if isinstance(op, RdAllOp):
            self._check_layers("rdall", client_id, op.template, op.space)
            return space.rdall(op.template)
        if isinstance(op, CasOp):
            self._check_layers("cas", client_id, op.entry, op.space)
            if space.rdp(op.template) is not None:
                return False
            lease = self._lease_for(client_id, op.lease_ms, ts)
            space.out(op.entry, lease=lease)
            events.append(DsEvent("inserted", op.space, tuple(op.entry)))
            if wake:
                self._wake_waiters(op.space, ts, events)
            return True
        if isinstance(op, ReplaceOp):
            self._check_layers("replace", client_id, op.entry, op.space)
            old = space.replace(op.template, op.entry)
            if old is not None:
                events.append(DsEvent("removed", op.space, old))
                events.append(DsEvent("inserted", op.space, tuple(op.entry)))
                if wake:
                    self._wake_waiters(op.space, ts, events)
            return old
        if isinstance(op, RenewOp):
            self._check_layers("renew", client_id, None, op.space)
            return space.renew_leases(client_id, ts + self.config.lease_ms)
        if isinstance(op, (RdOp, InOp)):
            name = "in" if isinstance(op, InOp) else "rd"
            self._check_layers(name, client_id, op.template, op.space)
            take = isinstance(op, InOp)
            if take:
                found = space.inp(op.template)
                if found is not None:
                    events.append(DsEvent("removed", op.space, found))
            else:
                found = space.rdp(op.template)
            if found is not None:
                return found
            if request_id is None:
                raise BadTupleError(
                    "blocking operations cannot be nested in extensions")
            self._waiters.setdefault(op.space, []).append(
                Waiter(request_id, op, take))
            return BLOCKED
        raise BadTupleError(f"unknown operation: {op!r}")

    def _lease_for(self, client_id: str, lease_ms: Optional[float],
                   ts: float) -> Optional[LeaseRecord]:
        if lease_ms is None:
            return None
        return LeaseRecord(owner=client_id, expires_at=ts + lease_ms)

    # -- waiters ----------------------------------------------------------------

    def _wake_waiters(self, space_name: str, ts: float,
                      events: List[DsEvent]) -> None:
        waiters = self._waiters.get(space_name)
        if not waiters:
            return
        space = self.space(space_name)
        still_blocked: List[Waiter] = []
        for waiter in waiters:
            template = waiter.op.template  # type: ignore[union-attr]
            found = space.rdp(template)
            if found is None:
                still_blocked.append(waiter)
                continue
            if self.unblock_filter is not None and not self.unblock_filter(
                    waiter, found, ts, self):
                still_blocked.append(waiter)  # extension re-blocked it
                continue
            if waiter.take:
                space.inp(template)
                events.append(DsEvent("removed", space_name, found))
            self._reply(waiter.request_id, found)
        self._waiters[space_name] = still_blocked

    # -- lease expiry ------------------------------------------------------------

    def _purge_leases(self, ts: float, events: List[DsEvent]) -> None:
        for name, space in self.spaces.items():
            for entry in space.purge_expired(ts):
                events.append(DsEvent("expired", name, entry))

    # -- replies -----------------------------------------------------------------

    def _reply(self, request_id: RequestId, value: Any,
               cache: bool = True) -> None:
        if self.byzantine:
            value = ("CORRUPTED", value)
        reply = DsReply((request_id.client_id, request_id.seq),
                        self.node_id, True, value)
        if cache:
            self._reply_cache[request_id.client_id] = reply
        self._mark_reply(request_id)
        self.net.send(self.node_id, request_id.client_id, reply)

    def _reply_error(self, request_id: RequestId, error: Exception,
                     cache: bool = True) -> None:
        code = getattr(error, "code", "DS_ERROR")
        reply = DsReply((request_id.client_id, request_id.seq),
                        self.node_id, False, None, code, str(error))
        if cache:
            self._reply_cache[request_id.client_id] = reply
        self._mark_reply(request_id)
        self.net.send(self.node_id, request_id.client_id, reply)

    def _mark_reply(self, request_id: RequestId) -> None:
        obs = self.env.obs
        if obs is not None:
            obs.tracer.mark(request_id.client_id, request_id.seq,
                            M_REPLY, self.env.now, self.node_id)

    # -- introspection ------------------------------------------------------------

    def counters(self):
        """This replica's counted facts as ``(name, node, value)``."""
        for key, value in self.stats.items():
            yield f"ds.{key}", self.node_id, value

    def _four_letter(self, command: str) -> str:
        """Answer a four-letter admin word from local state only."""
        if command == "ruok":
            return "imok"
        if command == "stat":
            waiting = sum(len(ws) for ws in self._waiters.values())
            return (f"node: {self.node_id}\n"
                    f"kernel: {self.config.kernel}\n"
                    f"view: {getattr(self.ordering, 'view', 0)}\n"
                    f"exec_seq: {self.ordering._exec_seq}\n"
                    f"spaces: {len(self.spaces)}\n"
                    f"blocked_waiters: {waiting}")
        if command == "mntr":
            lines = [f"ds_kernel\t{self.config.kernel}",
                     f"ds_exec_seq\t{self.ordering._exec_seq}",
                     f"ds_spaces\t{len(self.spaces)}"]
            lines += MetricsRegistry(
                network_counters(self.net)).mntr_lines(self.node_id)
            return "\n".join(lines)
        if command == "wchs":
            # DepSpace has no watches; report blocked waiters instead
            # (the closest notion of "who is parked on state changes").
            spaces = sum(1 for ws in self._waiters.values() if ws)
            total = sum(len(ws) for ws in self._waiters.values())
            return f"{spaces} spaces with waiters\nTotal waiters: {total}"
        return f"unknown command: {command!r}"

    # -- state transfer -----------------------------------------------------------

    def _on_gap(self, seq: int) -> None:
        if not self._state_synced:
            return  # a resync loop is already chasing a snapshot
        self._state_synced = False
        self._resync_generation += 1
        self.env.process(self._resync_loop(self._resync_generation))

    def _on_state_request(self, src: str, msg: StateRequest) -> None:
        if self.config.kernel != "pbft":
            return  # no snapshot protocol: the kernel backfills itself
        if not self.ordering.exec_truthful:
            # A view-change horizon skip advances exec_seq *before* the
            # matching snapshot arrives, so right now our spaces and
            # executed-ids lag the sequence number we would advertise.
            # Serving that snapshot poisons the receiver: it trusts
            # upto_seq, erases its own execution records, and later
            # re-executes requests behind the same client's reads. The
            # horizon maximum itself never skips (and crashed replicas
            # keep their state), so a truthful donor always exists.
            return
        snapshot = {
            "spaces": {name: sp.snapshot() for name, sp in self.spaces.items()},
            "exec_seq": self.ordering._exec_seq,
            "executed_ids": set(self.ordering._executed_ids),
            "view": self.ordering.view,
            # Blocked waiters are part of replicated state: they are
            # registered by ordered ops and consumed deterministically
            # by later inserts. A receiver that misses them would skip
            # the take a wake performs and diverge on the next insert.
            "waiters": {name: list(ws)
                        for name, ws in self._waiters.items() if ws},
            "reply_cache": dict(self._reply_cache),
        }
        fingerprint = self.fingerprint()
        self.net.send(self.node_id, src,
                      StateResponse(self.ordering._exec_seq, snapshot, fingerprint))

    def _on_state_response(self, src: str, msg: StateResponse) -> None:
        if self.config.kernel != "pbft":
            return
        if msg.upto_seq < self.ordering._exec_seq:
            # The donor is behind us. If our own state is sound we are
            # provably not the replica that needs a snapshot — stop
            # polling (stall detection restarts the chase if commits
            # later show we fell behind). If we skipped, keep rotating
            # until a donor at or past our skip target answers.
            if self.ordering.exec_truthful:
                self._state_synced = True
            return
        self._state_synced = True
        for name, snap in msg.snapshot["spaces"].items():
            self.space(name).restore(snap)
        self._waiters = {name: list(ws)
                         for name, ws in msg.snapshot.get("waiters",
                                                          {}).items()}
        self._reply_cache.update(msg.snapshot.get("reply_cache", {}))
        bft = self.ordering
        bft._exec_seq = msg.snapshot["exec_seq"]
        bft._executed_ids = set(msg.snapshot["executed_ids"])
        bft._next_seq = max(bft._next_seq, bft._exec_seq)
        donor_view = msg.snapshot.get("view", 0)
        if donor_view > bft.view:
            bft.view = donor_view
            bft._slots = {}
            bft._proposed_ids = set()
            bft._next_seq = bft._exec_seq
        # Requests the donor already executed must stop looking "stuck"
        # (they would otherwise drive view-change votes forever).
        for rid in list(bft._pending):
            if rid in bft._executed_ids:
                del bft._pending[rid]
        bft._stall_exec_seq = -1
        # The installed snapshot matches exec_seq again by definition;
        # drop slots it already covers and run any buffered committed
        # slots that execution skipped while it was frozen.
        bft.exec_truthful = True
        bft._slots = {s: sl for s, sl in bft._slots.items()
                      if s > bft._exec_seq}
        bft._execute_ready()
        if self.on_state_installed is not None:
            self.on_state_installed(self)

    def fingerprint(self) -> int:
        acc = 0
        for name, space in self.spaces.items():
            acc ^= hash(name) ^ space.fingerprint()
        return acc


