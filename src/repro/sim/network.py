"""Simulated message-passing network with latency and byte accounting.

The network is the only channel between simulated nodes (replicas and
clients). It provides:

* a configurable latency model (propagation base + transmission time
  proportional to message size, with optional deterministic jitter),
* per-node accounting of bytes/messages sent — the paper's Figures 8
  and 10 report *data sent by clients per operation*, which we compute
  from these counters,
* fault injection: node crashes, link partitions, and probabilistic drops
  (deterministic under a fixed seed).
"""

from __future__ import annotations

import dataclasses
import operator
import random
from collections import defaultdict
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from .environment import Environment

__all__ = ["LatencyModel", "Network", "TrafficRule", "estimate_size",
           "MESSAGE_HEADER_BYTES"]

#: Fixed per-message framing overhead (Ethernet + IP + TCP headers, rounded).
MESSAGE_HEADER_BYTES = 66


def _str_size(obj: str) -> int:
    # ASCII (the overwhelming case: paths, node names, error codes)
    # encodes to exactly len(obj) bytes — skip the encode allocation.
    if obj.isascii():
        return 4 + len(obj)
    return 4 + len(obj.encode("utf-8"))


def _container_size(obj) -> int:
    # Inlined per-item dispatch: get_children replies carry hundreds of
    # name strings, so the per-item estimate_size frame adds up.
    total = 4
    sizers = _SIZERS
    for item in obj:
        sizer = sizers.get(item.__class__)
        total += sizer(item) if sizer is not None else estimate_size(item)
    return total


def _dict_size(obj) -> int:
    return 4 + sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())


#: Exact-type dispatch table for :func:`estimate_size`. Message payloads
#: are overwhelmingly a handful of primitive and dataclass types; one
#: dict lookup replaces the original isinstance ladder, and dataclass
#: types get a per-type sizer installed on first sight (memoizing the
#: ``dataclasses.fields`` walk, which is surprisingly expensive).
_SIZERS: Dict[type, Callable[[Any], int]] = {
    bool: lambda obj: 1,
    type(None): lambda obj: 1,
    int: lambda obj: 8,
    float: lambda obj: 8,
    bytes: lambda obj: 4 + len(obj),
    str: _str_size,
    list: _container_size,
    tuple: _container_size,
    set: _container_size,
    frozenset: _container_size,
    dict: _dict_size,
}


#: Per-field byte cost readable straight off a dataclass annotation.
#: (Annotations are strings under ``from __future__ import annotations``,
#: type objects otherwise — accept both.) A bool-annotated field always
#: holds a bool, so its cost folds into the per-class constant; same for
#: int/float. ``Optional[...]`` and container annotations stay dynamic.
_FIXED_FIELD_BYTES = {"int": 8, "float": 8, "bool": 1,
                      int: 8, float: 8, bool: 1}


def _register_sizer(cls: type, obj: Any) -> Optional[Callable[[Any], int]]:
    """Build (and cache) a sizer for a newly seen payload type."""
    if callable(getattr(cls, "wire_size", None)):
        sizer = lambda o: int(o.wire_size())  # noqa: E731
    elif dataclasses.is_dataclass(cls):
        # Fold fixed-size fields into one constant; only fields whose
        # size depends on the value are fetched and walked. Protocol
        # messages like Ack(epoch, zxid) become pure constants.
        const = 2
        dynamic = []
        for f in dataclasses.fields(cls):
            fixed = _FIXED_FIELD_BYTES.get(f.type)
            if fixed is None:
                dynamic.append(f.name)
            else:
                const += fixed
        if not dynamic:
            sizer = lambda o, _const=const: _const  # noqa: E731
        elif len(dynamic) == 1:
            getter = operator.attrgetter(dynamic[0])
            sizer = (lambda o, _const=const, _getter=getter:  # noqa: E731
                     _const + estimate_size(_getter(o)))
        else:
            # attrgetter fetches every dynamic field in one C call.
            getter = operator.attrgetter(*dynamic)

            def sizer(o, _const=const, _getter=getter):
                total = _const
                for value in _getter(o):
                    total += estimate_size(value)
                return total
    else:
        return None
    _SIZERS[cls] = sizer
    return sizer


def estimate_size(obj: Any) -> int:
    """Estimate the wire size of a payload object, in bytes.

    Messages in this code base are small dataclasses carrying strings,
    bytes, numbers, and shallow containers; the estimate reflects a
    compact binary encoding (8-byte numbers, length-prefixed strings).
    Objects may override the estimate by providing ``wire_size()``.
    """
    cls = obj.__class__
    sizer = _SIZERS.get(cls)
    if sizer is not None:
        return sizer(obj)
    sizer = _register_sizer(cls, obj)
    if sizer is not None:
        return sizer(obj)
    # Uncached slow path: instance-level wire_size overrides, subclasses
    # of the primitives/containers, and odd objects.
    size = getattr(obj, "wire_size", None)
    if callable(size):
        return int(size())
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, bytes):
        return 4 + len(obj)
    if isinstance(obj, str):
        return _str_size(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return _container_size(obj)
    if isinstance(obj, dict):
        return _dict_size(obj)
    # Fallback for odd objects: a conservative flat cost.
    return 16


@dataclasses.dataclass
class TrafficRule:
    """A targeted drop or delay rule for in-flight messages.

    Matches a message when every present filter matches: ``msg_types``
    (payload class names; None = any type), ``src`` and ``dst`` (a node
    id or a set of node ids; None = any node). A ``drop`` rule discards
    matches with ``probability``; a ``delay`` rule adds ``extra_ms`` to
    their one-way latency. Rules model the chaos harness's
    message-targeted faults (e.g. "lose every Commit to zk2 for
    800 ms") without touching the partition machinery.
    """

    kind: str                                    # "drop" | "delay"
    msg_types: Optional[frozenset] = None        # payload class names
    src: Optional[Any] = None                    # node id or set of ids
    dst: Optional[Any] = None
    probability: float = 1.0                     # drop rules
    extra_ms: float = 0.0                        # delay rules

    def matches(self, src: str, dst: str, msg: Any) -> bool:
        if self.src is not None and not _node_match(self.src, src):
            return False
        if self.dst is not None and not _node_match(self.dst, dst):
            return False
        if (self.msg_types is not None
                and msg.__class__.__name__ not in self.msg_types):
            return False
        return True


def _node_match(selector: Any, node: str) -> bool:
    if isinstance(selector, (set, frozenset, tuple, list)):
        return node in selector
    return selector == node


def _type_names(msg_types) -> Optional[frozenset]:
    if msg_types is None:
        return None
    return frozenset(t if isinstance(t, str) else t.__name__
                     for t in msg_types)


@dataclasses.dataclass
class LatencyModel:
    """One-way message latency: ``base + size/bandwidth + jitter``.

    Defaults approximate the paper's testbed — switched Gigabit Ethernet
    inside one data center: ~60 us propagation/switching, 1 Gbit/s
    transmission, and a small uniform jitter.
    """

    base_ms: float = 0.06
    bandwidth_bytes_per_ms: float = 125_000.0  # 1 Gbit/s
    jitter_ms: float = 0.02

    def latency(self, size_bytes: int, rng: random.Random) -> float:
        transmission = size_bytes / self.bandwidth_bytes_per_ms
        jitter = rng.uniform(0.0, self.jitter_ms) if self.jitter_ms else 0.0
        return self.base_ms + transmission + jitter


class _Delivery:
    """One in-flight message: a slotted, closure-free queue entry.

    The environment's event queue only requires a ``_process()`` method,
    so the per-message cost is one small object instead of an Event plus
    a six-variable closure.
    """

    __slots__ = ("net", "src", "dst", "msg", "size", "handler")

    def __init__(self, net: "Network", src: str, dst: str, msg: Any,
                 size: int, handler: Callable[[str, Any], None]):
        self.net = net
        self.src = src
        self.dst = dst
        self.msg = msg
        self.size = size
        self.handler = handler

    def _process(self) -> None:
        net = self.net
        if self.dst in net._crashed:
            return
        net.bytes_received[self.dst] += self.size
        self.handler(self.src, self.msg)


#: Prune the FIFO bookkeeping after this many sends (see Network._prune).
_PRUNE_INTERVAL = 8192


class Network:
    """Delivers messages between registered nodes with simulated latency."""

    def __init__(self, env: Environment,
                 latency: Optional[LatencyModel] = None,
                 seed: int = 0,
                 fifo: bool = True):
        self.env = env
        self.latency = latency or LatencyModel()
        self._rng = random.Random(seed)
        self._fifo = fifo
        self._last_delivery: Dict[tuple[str, str], float] = {}
        self._sends_until_prune = _PRUNE_INTERVAL
        self._handlers: Dict[str, Callable[[str, Any], None]] = {}
        self.bytes_sent: Dict[str, int] = defaultdict(int)
        self.msgs_sent: Dict[str, int] = defaultdict(int)
        self.bytes_received: Dict[str, int] = defaultdict(int)
        #: messages the fault model dropped, billed to the sender.
        self.dropped: Dict[str, int] = defaultdict(int)
        self._crashed: set[str] = set()
        self._partitions: set[frozenset[str]] = set()
        #: asymmetric partitions: (src, dst) pairs blocked one-way only.
        self._oneway: set[tuple[str, str]] = set()
        self.drop_probability: float = 0.0
        #: targeted drop/delay rules, keyed by the id remove_rule takes.
        self._rules: Dict[int, TrafficRule] = {}
        self._next_rule_id = 0

    # -- membership ----------------------------------------------------------

    def register(self, node_id: str,
                 handler: Callable[[str, Any], None]) -> None:
        """Attach ``handler(src, msg)`` as the inbox of ``node_id``."""
        if node_id in self._handlers:
            raise ValueError(f"node id already registered: {node_id!r}")
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)

    def endpoints(self) -> List[Any]:
        """The objects whose bound methods are registered as inboxes."""
        return [getattr(handler, "__self__", None)
                for handler in self._handlers.values()]

    def counters(self) -> Iterator[Tuple[str, str, int]]:
        """Per-node traffic counts as ``(name, node, value)``."""
        for name, per_node in (("net.msgs_sent", self.msgs_sent),
                               ("net.bytes_sent", self.bytes_sent),
                               ("net.bytes_received", self.bytes_received),
                               ("net.dropped", self.dropped)):
            for node, value in per_node.items():
                yield name, node, value

    # -- fault injection ---------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Silently drop all future traffic to and from ``node_id``."""
        self._crashed.add(node_id)

    def recover(self, node_id: str) -> None:
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: str) -> bool:
        return node_id in self._crashed

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Block all traffic between the two groups (both directions)."""
        for a in group_a:
            for b in group_b:
                self._partitions.add(frozenset((a, b)))

    def partition_oneway(self, srcs: Iterable[str],
                         dsts: Iterable[str]) -> None:
        """Block traffic from ``srcs`` to ``dsts`` only (asymmetric).

        The reverse direction stays up — the classic half-open link
        where a follower hears the leader but its acks never arrive.
        """
        for a in srcs:
            for b in dsts:
                self._oneway.add((a, b))

    def heal(self) -> None:
        """Remove every partition (symmetric and one-way)."""
        self._partitions.clear()
        self._oneway.clear()

    def add_drop_rule(self, probability: float = 1.0,
                      msg_types: Optional[Iterable] = None,
                      src: Optional[Any] = None,
                      dst: Optional[Any] = None) -> int:
        """Drop matching messages with ``probability``; returns a rule id.

        ``msg_types`` accepts payload classes or class-name strings;
        None matches every type. Drops draw from the network RNG, so a
        run with fixed seeds replays the same losses.
        """
        return self._add_rule(TrafficRule(
            "drop", _type_names(msg_types), src, dst,
            probability=probability))

    def add_delay_rule(self, extra_ms: float,
                       msg_types: Optional[Iterable] = None,
                       src: Optional[Any] = None,
                       dst: Optional[Any] = None) -> int:
        """Add ``extra_ms`` latency to matching messages; returns a rule id."""
        return self._add_rule(TrafficRule(
            "delay", _type_names(msg_types), src, dst, extra_ms=extra_ms))

    def _add_rule(self, rule: TrafficRule) -> int:
        self._next_rule_id += 1
        self._rules[self._next_rule_id] = rule
        return self._next_rule_id

    def remove_rule(self, rule_id: int) -> None:
        self._rules.pop(rule_id, None)

    def clear_rules(self) -> None:
        self._rules.clear()

    def _blocked(self, src: str, dst: str, msg: Any) -> bool:
        if src in self._crashed or dst in self._crashed:
            return True
        if self._partitions and frozenset((src, dst)) in self._partitions:
            return True
        if self._oneway and (src, dst) in self._oneway:
            return True
        if self.drop_probability and self._rng.random() < self.drop_probability:
            return True
        if self._rules:
            for rule in self._rules.values():
                if (rule.kind == "drop" and rule.matches(src, dst, msg)
                        and self._rng.random() < rule.probability):
                    return True
        return False

    def _extra_delay(self, src: str, dst: str, msg: Any) -> float:
        extra = 0.0
        for rule in self._rules.values():
            if rule.kind == "delay" and rule.matches(src, dst, msg):
                extra += rule.extra_ms
        return extra

    # -- transmission --------------------------------------------------------

    def send(self, src: str, dst: str, msg: Any) -> int:
        """Send ``msg`` from ``src`` to ``dst``; returns billed byte count.

        Bytes are billed to the sender even if the message is later lost —
        that is how a real NIC counter behaves, and it keeps the client
        cost figures honest under retries.
        """
        return self._send_sized(src, dst, msg,
                                MESSAGE_HEADER_BYTES + estimate_size(msg))

    def _send_sized(self, src: str, dst: str, msg: Any, size: int) -> int:
        self.bytes_sent[src] += size
        self.msgs_sent[src] += 1
        # Fast path: no faults injected, nothing can block the message.
        faults = (self._crashed or self._partitions or self._oneway
                  or self.drop_probability or self._rules)
        if faults and self._blocked(src, dst, msg):
            self.dropped[src] += 1
            return size
        handler = self._handlers.get(dst)
        if handler is None:
            return size
        env = self.env
        # Inlined LatencyModel.latency (uniform(0, j) == j * random()).
        lat = self.latency
        delay = lat.base_ms + size / lat.bandwidth_bytes_per_ms
        if lat.jitter_ms:
            delay += lat.jitter_ms * self._rng.random()
        if self._rules:
            delay += self._extra_delay(src, dst, msg)
        arrival = env._now + delay
        if self._fifo:
            # TCP-like channels: per-(src, dst) deliveries never reorder.
            channel = (src, dst)
            last = self._last_delivery.get(channel)
            if last is not None and last > arrival:
                arrival = last
            self._last_delivery[channel] = arrival
            self._sends_until_prune -= 1
            if self._sends_until_prune <= 0:
                self._prune()
        # Inlined env.schedule (hot path: one push per message).
        env._push(arrival, _Delivery(self, src, dst, msg, size, handler))
        return size

    def _prune(self) -> None:
        """Drop FIFO bookkeeping that no longer constrains ordering.

        A channel whose last scheduled arrival lies in the past cannot
        delay any future send, so its entry is dead weight; without this
        sweep ``_last_delivery`` grows with every (src, dst) pair that
        ever exchanged a message (e.g. one per client in the figure
        drivers) and is retained for the whole run.
        """
        now = self.env.now
        stale = [channel for channel, arrival in self._last_delivery.items()
                 if arrival <= now]
        for channel in stale:
            del self._last_delivery[channel]
        self._sends_until_prune = _PRUNE_INTERVAL

    def broadcast(self, src: str, dsts: Iterable[str], msg: Any) -> int:
        """Send ``msg`` to every destination; returns total billed bytes.

        The payload is sized once, not per destination.
        """
        size = MESSAGE_HEADER_BYTES + estimate_size(msg)
        return sum(self._send_sized(src, dst, msg, size) for dst in dsts)
