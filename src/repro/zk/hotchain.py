"""NetChain-inspired chain-replicated hot-key tier.

The lease cache (``leases.py``) wins when hot keys are read-mostly; a
tiny *high-churn* object — a sequencer, a queue head pointer, a rate
counter — defeats it, because every write pays a revocation round
before it commits. NetChain's answer is to move such objects into a
dedicated chain-replicated fast tier and keep the coordination service
as its **control plane**:

* writes enter at the **head** and propagate hop-by-hop to the tail;
  only the **tail** acks, so an acked write is fully replicated;
* reads go to the **tail** only, which by the ack rule serves the last
  fully-replicated write — per-key linearizability without any client
  round to a leader;
* the chain's membership, the promoted key set, and a monotonically
  increasing **epoch** live in a znode (``/hotchain/config``) owned by
  the controller. Every data-plane message carries the sender's epoch;
  a member that was reconfigured away (or a client routing on a stale
  config) is fenced by the epoch check at the next hop and falls back
  to the coordination tree.

Promotion is driven by observed access frequency with hysteresis:
routers report per-key access counts, the controller promotes keys
that stay above a threshold for a full window and demotes only after
several consecutive quiet windows, so a key oscillating around the
threshold does not flap. Promotion copies the znode's current value
into the chain; demotion drains the tail's final value back into the
znode — both under an epoch bump, so the two copies can never both be
writable.

Known bounded races (documented, by design): a write acked by the old
chain *after* its key was demoted is not lost — the drain runs after
the epoch bump fences the head, so the ack could only have come from
the pre-bump tail state the drain reads. A write in flight *inside*
the chain during reconfiguration is nacked at the first hop holding
the new epoch and the client retries against the tree; it was never
acked, so nothing observable is lost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..sim import Environment, Event, Network
from .client import ZkClient
from .errors import ZkError

__all__ = ["HotChainConfig", "ChainNode", "HotChainController",
           "HotChainRouter", "PromotionPolicy", "CONFIG_PATH"]

#: the control-plane znode: JSON {epoch, members, keys}.
CONFIG_PATH = "/hotchain/config"

_TIMED_OUT = object()


@dataclass(frozen=True)
class HotChainConfig:
    """Knobs for the chain tier (promotion policy + failure detection)."""

    #: accesses per report window that make a key chain-worthy.
    promote_accesses: int = 32
    #: consecutive windows below the threshold before demotion.
    demote_windows: int = 3
    #: routers report access counts (and the controller runs its
    #: policy/health tick) on this cadence.
    report_interval_ms: float = 100.0
    #: member liveness: a member whose pong is older than this many
    #: ticks is reconfigured out of the chain.
    probe_misses: int = 2
    #: data-plane RPC deadline at routers before falling back to ZK.
    rpc_timeout_ms: float = 50.0

    def validate(self) -> None:
        if self.promote_accesses < 1:
            raise ValueError("promote_accesses must be >= 1")
        if self.demote_windows < 1:
            raise ValueError("demote_windows must be >= 1")
        if self.report_interval_ms <= 0:
            raise ValueError("report_interval_ms must be positive")
        if self.rpc_timeout_ms <= 0:
            raise ValueError("rpc_timeout_ms must be positive")


# ---------------------------------------------------------------------------
# wire messages (data plane + control plane)
# ---------------------------------------------------------------------------


@dataclass
class ChainConfigure:
    """Controller -> member: adopt this epoch's membership and key set."""

    epoch: int
    members: Tuple[str, ...]
    keys: Tuple[str, ...]


@dataclass
class ChainWrite:
    """Client -> head."""

    xid: int
    key: str
    value: bytes
    origin: str


@dataclass
class ChainForward:
    """Hop-by-hop propagation; fenced by the epoch at every hop."""

    epoch: int
    xid: int
    key: str
    value: bytes
    version: int
    origin: str


@dataclass
class ChainWriteAck:
    """Tail -> origin: the write is fully replicated."""

    xid: int
    key: str
    version: int


@dataclass
class ChainRead:
    """Client -> tail."""

    xid: int
    key: str
    origin: str


@dataclass
class ChainReadReply:
    xid: int
    key: str
    value: bytes
    version: int


@dataclass
class ChainNack:
    """Any member -> origin: wrong epoch/role/key; go refresh + fall back."""

    xid: int
    key: str
    reason: str


@dataclass
class ChainDrain:
    """Controller -> tail: hand back a demoted key's final value."""

    xid: int
    key: str
    origin: str


@dataclass
class ChainDrainAck:
    xid: int
    key: str
    value: Optional[bytes]
    version: int


@dataclass
class ChainPing:
    seq: int
    origin: str


@dataclass
class ChainPong:
    seq: int
    member: str


@dataclass
class AccessReport:
    """Router -> controller: per-key access counts since the last report."""

    counts: Dict[str, int]


# ---------------------------------------------------------------------------
# data plane: one chain member
# ---------------------------------------------------------------------------


class ChainNode:
    """One chain member: an epoch-fenced in-memory store.

    Deliberately *not* a ZkServer — NetChain's point is that the fast
    tier is dumb and cheap (in-network switches there, a bare dict
    here); all policy lives in the controller.
    """

    def __init__(self, env: Environment, net: Network, node_id: str):
        self.env = env
        self.net = net
        self.node_id = node_id
        self.epoch = 0
        self.members: Tuple[str, ...] = ()
        self.keys: frozenset = frozenset()
        #: key -> (value, version); version is per-key, head-assigned.
        self.store: Dict[str, Tuple[bytes, int]] = {}
        #: final values of keys configured away, kept for the drain.
        self.retired: Dict[str, Tuple[bytes, int]] = {}
        self.stats = {"reads": 0, "writes": 0, "nacks": 0}
        self._alive = True
        net.register(node_id, self.handle_message)

    def counters(self):
        """This member's counted facts as ``(name, node, value)``."""
        for key, value in self.stats.items():
            yield f"hotchain.{key}", self.node_id, value

    # -- roles -------------------------------------------------------------

    @property
    def is_head(self) -> bool:
        return bool(self.members) and self.members[0] == self.node_id

    @property
    def is_tail(self) -> bool:
        return bool(self.members) and self.members[-1] == self.node_id

    @property
    def successor(self) -> Optional[str]:
        if self.node_id not in self.members:
            return None
        index = self.members.index(self.node_id)
        if index + 1 < len(self.members):
            return self.members[index + 1]
        return None

    # -- fault injection ---------------------------------------------------

    def crash(self) -> None:
        self._alive = False
        self.net.crash(self.node_id)

    def recover(self) -> None:
        """Rejoin empty and epoch-zero: only a ChainConfigure (with a
        fresh seed of values through the head) makes us serve again."""
        self._alive = True
        self.net.recover(self.node_id)
        self.epoch = 0
        self.members = ()
        self.keys = frozenset()
        self.store.clear()

    # -- dispatch ----------------------------------------------------------

    def handle_message(self, src: str, msg: object) -> None:
        if not self._alive:
            return
        if isinstance(msg, ChainConfigure):
            self._on_configure(msg)
        elif isinstance(msg, ChainWrite):
            self._on_write(msg)
        elif isinstance(msg, ChainForward):
            self._on_forward(msg)
        elif isinstance(msg, ChainRead):
            self._on_read(msg)
        elif isinstance(msg, ChainDrain):
            self._on_drain(msg)
        elif isinstance(msg, ChainPing):
            self.net.send(self.node_id, msg.origin,
                          ChainPong(msg.seq, self.node_id))

    def _on_configure(self, msg: ChainConfigure) -> None:
        if msg.epoch < self.epoch:
            return                      # stale controller retry
        self.epoch = msg.epoch
        self.members = tuple(msg.members)
        new_keys = frozenset(msg.keys)
        for key in list(self.store):
            if key not in new_keys:
                self.retired[key] = self.store.pop(key)
        self.keys = new_keys

    def _on_write(self, msg: ChainWrite) -> None:
        if not self.is_head or msg.key not in self.keys:
            self.stats["nacks"] += 1
            self.net.send(self.node_id, msg.origin,
                          ChainNack(msg.xid, msg.key, "not head"))
            return
        self.stats["writes"] += 1
        version = self.store.get(msg.key, (b"", 0))[1] + 1
        self.store[msg.key] = (msg.value, version)
        self._propagate(msg.xid, msg.key, msg.value, version, msg.origin)

    def _on_forward(self, msg: ChainForward) -> None:
        if msg.epoch != self.epoch or msg.key not in self.keys:
            # Epoch fence: a reconfiguration happened somewhere between
            # the head and us; the origin retries against the tree.
            self.net.send(self.node_id, msg.origin,
                          ChainNack(msg.xid, msg.key, "epoch fence"))
            return
        self.store[msg.key] = (msg.value, msg.version)
        self._propagate(msg.xid, msg.key, msg.value, msg.version, msg.origin)

    def _propagate(self, xid: int, key: str, value: bytes, version: int,
                   origin: str) -> None:
        nxt = self.successor
        if nxt is None:
            # We are the tail: the write is fully replicated — ack.
            self.net.send(self.node_id, origin,
                          ChainWriteAck(xid, key, version))
            return
        self.net.send(self.node_id, nxt,
                      ChainForward(self.epoch, xid, key, value, version,
                                   origin))

    def _on_read(self, msg: ChainRead) -> None:
        if not self.is_tail or msg.key not in self.keys:
            self.stats["nacks"] += 1
            self.net.send(self.node_id, msg.origin,
                          ChainNack(msg.xid, msg.key, "not tail"))
            return
        self.stats["reads"] += 1
        value, version = self.store.get(msg.key, (b"", 0))
        self.net.send(self.node_id, msg.origin,
                      ChainReadReply(msg.xid, msg.key, value, version))

    def _on_drain(self, msg: ChainDrain) -> None:
        entry = self.retired.pop(msg.key, None) or self.store.get(msg.key)
        if entry is None:
            self.net.send(self.node_id, msg.origin,
                          ChainDrainAck(msg.xid, msg.key, None, 0))
            return
        self.net.send(self.node_id, msg.origin,
                      ChainDrainAck(msg.xid, msg.key, entry[0], entry[1]))


# ---------------------------------------------------------------------------
# promotion policy (pure, unit-testable)
# ---------------------------------------------------------------------------


class PromotionPolicy:
    """Frequency promotion with hysteresis (no flapping).

    ``observe`` a window's access counts, then ask :meth:`decide` which
    keys to promote (hot for the whole window) and which to demote
    (below threshold for ``demote_windows`` consecutive windows).
    """

    def __init__(self, config: HotChainConfig):
        self.config = config
        self.promoted: Set[str] = set()
        self._quiet: Dict[str, int] = {}

    def decide(self, counts: Dict[str, int]) -> Tuple[List[str], List[str]]:
        promote: List[str] = []
        demote: List[str] = []
        threshold = self.config.promote_accesses
        for key in sorted(counts):
            if counts[key] >= threshold and key not in self.promoted:
                promote.append(key)
        for key in sorted(self.promoted):
            if counts.get(key, 0) >= threshold:
                self._quiet.pop(key, None)
                continue
            quiet = self._quiet.get(key, 0) + 1
            self._quiet[key] = quiet
            if quiet >= self.config.demote_windows:
                demote.append(key)
        for key in promote:
            self.promoted.add(key)
            self._quiet.pop(key, None)
        for key in demote:
            self.promoted.discard(key)
            self._quiet.pop(key, None)
        return promote, demote


# ---------------------------------------------------------------------------
# control plane: the controller
# ---------------------------------------------------------------------------


class HotChainController:
    """Owns the chain config znode; promotes, demotes, and heals.

    Runs as one simulated process holding an ordinary :class:`ZkClient`
    — the coordination service is the chain's control plane exactly as
    NetChain uses it, so controller failover could ride an ephemeral
    leader election like any other recipe.
    """

    def __init__(self, env: Environment, net: Network, zk: ZkClient,
                 nodes: List[ChainNode],
                 config: Optional[HotChainConfig] = None):
        config = config or HotChainConfig()
        config.validate()
        self.env = env
        self.net = net
        self.zk = zk
        self.nodes = list(nodes)
        self.config = config
        self.node_id = f"{zk.node_id}.hcc"
        self.epoch = 0
        self.members: List[str] = [n.node_id for n in nodes]
        self.policy = PromotionPolicy(config)
        self._counts: Dict[str, int] = {}
        self._pongs: Dict[str, int] = {m: 0 for m in self.members}
        self._probe_seq = 0
        self._xid = 0
        self._pending: Dict[int, Event] = {}
        self._stopped = False
        self.stats = {"promotions": 0, "demotions": 0, "reconfigs": 0,
                      "members_dropped": 0}
        net.register(self.node_id, self._on_message)

    # -- inbox -------------------------------------------------------------

    def _on_message(self, src: str, msg: object) -> None:
        if isinstance(msg, AccessReport):
            for key, count in msg.counts.items():
                self._counts[key] = self._counts.get(key, 0) + count
        elif isinstance(msg, ChainPong):
            self._pongs[msg.member] = msg.seq
        elif isinstance(msg, (ChainWriteAck, ChainDrainAck, ChainNack)):
            future = self._pending.pop(msg.xid, None)
            if future is not None and not future.triggered:
                future.succeed(msg)

    def _rpc(self, dst: str, msg, xid: int):
        future = self.env.event()
        self._pending[xid] = future
        self.net.send(self.node_id, dst, msg)
        self.env.defer(self.config.rpc_timeout_ms, self._expire, xid, future)
        reply = yield future
        return None if reply is _TIMED_OUT else reply

    def _expire(self, xid: int, future: Event) -> None:
        if not future.triggered:
            self._pending.pop(xid, None)
            future.succeed(_TIMED_OUT)

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Generator: publish epoch 1 and start the policy/health loop."""
        try:
            yield from self.zk.create("/hotchain", b"")
        except ZkError:
            pass
        yield from self._publish()
        for node in self.nodes:
            if node.node_id in self.members:
                self.net.send(self.node_id, node.node_id,
                              self._configure_msg())
        self.env.process(self._run())

    def stop(self) -> None:
        self._stopped = True

    def _configure_msg(self) -> ChainConfigure:
        return ChainConfigure(self.epoch, tuple(self.members),
                              tuple(sorted(self.policy.promoted)))

    def _publish(self):
        """Write {epoch, members, keys} to the config znode."""
        self.epoch += 1
        payload = json.dumps({
            "epoch": self.epoch,
            "members": list(self.members),
            "keys": sorted(self.policy.promoted),
        }).encode()
        try:
            yield from self.zk.create(CONFIG_PATH, payload)
        except ZkError:
            yield from self.zk.set_data(CONFIG_PATH, payload)
        self.stats["reconfigs"] += 1

    def _run(self):
        while not self._stopped:
            yield self.env.timeout(self.config.report_interval_ms)
            if self._stopped:
                return
            changed = self._check_members()
            promote, demote = self.policy.decide(self._counts)
            self._counts = {}
            if changed or promote or demote:
                yield from self._reconfigure(promote, demote)
            self._probe_members()

    # -- failure detection -------------------------------------------------

    def _probe_members(self) -> None:
        self._probe_seq += 1
        for member in self.members:
            self.net.send(self.node_id, member,
                          ChainPing(self._probe_seq, self.node_id))

    def _check_members(self) -> bool:
        """Drop members whose pongs stopped; True when membership shrank."""
        horizon = self._probe_seq - self.config.probe_misses
        if horizon <= 0:
            return False
        dead = [m for m in self.members if self._pongs.get(m, 0) <= horizon]
        if not dead:
            return False
        self.members = [m for m in self.members if m not in dead]
        self.stats["members_dropped"] += len(dead)
        return True

    # -- reconfiguration ---------------------------------------------------

    def _reconfigure(self, promote: List[str], demote: List[str]):
        """Epoch bump + migrate: config first, then the key values.

        Order matters: the new epoch is published (znode, then members)
        *before* any value moves, so the old configuration is fenced
        when the migration reads or writes either copy.
        """
        if not self.members:
            # No chain left: everything falls back to the tree until a
            # member returns (routers nack-refresh onto the new config).
            self.policy.promoted.clear()
            promote, demote = [], []
        yield from self._publish()
        for node in self.nodes:
            self.net.send(self.node_id, node.node_id, self._configure_msg())
        head = self.members[0] if self.members else None
        tail = self.members[-1] if self.members else None
        for key in promote:
            # Seed the chain with the znode's current value through the
            # head; the tail ack means every member holds it.
            try:
                data, _stat = yield from self.zk.get_data(key)
            except ZkError:
                self.policy.promoted.discard(key)
                continue
            self._xid += 1
            reply = yield from self._rpc(
                head, ChainWrite(self._xid, key, data, self.node_id),
                self._xid)
            if not isinstance(reply, ChainWriteAck):
                self.policy.promoted.discard(key)
            else:
                self.stats["promotions"] += 1
        for key in demote:
            if tail is None:
                continue
            self._xid += 1
            reply = yield from self._rpc(
                tail, ChainDrain(self._xid, key, self.node_id), self._xid)
            if isinstance(reply, ChainDrainAck) and reply.value is not None:
                try:
                    yield from self.zk.set_data(key, reply.value)
                except ZkError:
                    pass
            self.stats["demotions"] += 1
        if promote:
            # The promoted set changed during seeding failures: publish
            # the truth so routers don't chase keys the chain refused.
            yield from self._publish()
            for node in self.nodes:
                self.net.send(self.node_id, node.node_id,
                              self._configure_msg())


# ---------------------------------------------------------------------------
# client side: the router
# ---------------------------------------------------------------------------


class HotChainRouter:
    """Routes a client's reads/writes: chain for promoted keys, ZK else.

    Wraps an ordinary :class:`ZkClient`; refreshes its routing table
    from the config znode on every nack or timeout (the stale-config
    client is exactly who the epoch fence is for).
    """

    def __init__(self, zk: ZkClient, controller_id: str,
                 config: Optional[HotChainConfig] = None):
        self.zk = zk
        self.env = zk.env
        self.net = zk.net
        self.config = config or HotChainConfig()
        self.controller_id = controller_id
        self.node_id = f"{zk.node_id}.hc"
        self.epoch = 0
        self.members: Tuple[str, ...] = ()
        self.keys: frozenset = frozenset()
        self._xid = 0
        self._pending: Dict[int, Event] = {}
        self._counts: Dict[str, int] = {}
        self._last_report = 0.0
        self.stats = {"chain_reads": 0, "chain_writes": 0, "fallbacks": 0,
                      "refreshes": 0}
        self.net.register(self.node_id, self._on_message)

    def _on_message(self, src: str, msg: object) -> None:
        if isinstance(msg, (ChainReadReply, ChainWriteAck, ChainNack)):
            future = self._pending.pop(msg.xid, None)
            if future is not None and not future.triggered:
                future.succeed(msg)

    # -- config ------------------------------------------------------------

    def refresh(self):
        """Re-read the config znode (nack/timeout recovery path)."""
        self.stats["refreshes"] += 1
        try:
            data, _stat = yield from self.zk.get_data(CONFIG_PATH)
            parsed = json.loads(data.decode())
        except (ZkError, ValueError):
            self.members = ()
            self.keys = frozenset()
            return
        if parsed["epoch"] >= self.epoch:
            self.epoch = parsed["epoch"]
            self.members = tuple(parsed["members"])
            self.keys = frozenset(parsed["keys"])

    def _note_access(self, key: str) -> bool:
        """Count the access; True when a report went out (refresh due)."""
        self._counts[key] = self._counts.get(key, 0) + 1
        if (self.env.now - self._last_report
                >= self.config.report_interval_ms):
            self._last_report = self.env.now
            counts, self._counts = self._counts, {}
            self.net.send(self.node_id, self.controller_id,
                          AccessReport(counts))
            return True
        return False

    # -- data plane --------------------------------------------------------

    def _rpc(self, dst: str, build):
        self._xid += 1
        xid = self._xid
        future = self.env.event()
        self._pending[xid] = future
        self.net.send(self.node_id, dst, build(xid))
        self.env.defer(self.config.rpc_timeout_ms, self._expire, xid, future)
        reply = yield future
        return None if reply is _TIMED_OUT else reply

    def _expire(self, xid: int, future: Event) -> None:
        if not future.triggered:
            self._pending.pop(xid, None)
            future.succeed(_TIMED_OUT)

    #: chain RPC attempts (each a timeout + config refresh) before a
    #: promoted key's operation gives up on the chain. The controller
    #: heals a dead member within ~``probe_misses`` report intervals,
    #: well inside this budget; exhausting it means the whole tier
    #: (or its controller) is gone.
    max_attempts = 10

    def read(self, path: str):
        """Chain tail read for promoted keys; ZK read otherwise.

        While the config says the key is promoted, the chain is the
        *only* authority — the znode copy is stale by design (synced at
        demotion). A failed tail RPC therefore refreshes the config and
        retries rather than reading the znode; the ZK path is taken
        only once the key leaves the config, or after ``max_attempts``
        (the catastrophic everyone-died case, where the znode copy —
        the value as of promotion or the last demotion — is the best
        surviving state).
        """
        if self._note_access(path):
            yield from self.refresh()
        for _ in range(self.max_attempts):
            if path not in self.keys or not self.members:
                break
            reply = yield from self._rpc(
                self.members[-1],
                lambda xid: ChainRead(xid, path, self.node_id))
            if isinstance(reply, ChainReadReply):
                self.stats["chain_reads"] += 1
                return reply.value
            self.stats["fallbacks"] += 1
            yield from self.refresh()
        value = yield from self.zk.get_data(path)
        return value[0] if isinstance(value, tuple) else value

    def update(self, path: str, data: bytes):
        """Chain head write for promoted keys; ZK write otherwise.

        Never writes the znode while the key is promoted: a direct
        znode write would be silently clobbered by the demotion drain
        (the tail's value wins). Retries the chain until it heals or
        the key is demoted out of the config.
        """
        if self._note_access(path):
            yield from self.refresh()
        for _ in range(self.max_attempts):
            if path not in self.keys or not self.members:
                break
            reply = yield from self._rpc(
                self.members[0],
                lambda xid: ChainWrite(xid, path, data, self.node_id))
            if isinstance(reply, ChainWriteAck):
                self.stats["chain_writes"] += 1
                return True
            self.stats["fallbacks"] += 1
            yield from self.refresh()
        yield from self.zk.set_data(path, data)
        return True
