"""Outside-in layer spans: wall-clock self time per layer, from wrappers.

The traced run patches the entry points of each layer (a table of
``(module, owner, attribute)`` triples) with wrappers that push a span
on entry and pop it on exit. Nothing in ``src/`` is edited: the wrappers
are installed on the live classes and modules before any ensemble is
built, so bound methods handed to the network or to the event kernel
are the wrapped ones, and :meth:`SpanProfiler.uninstall` restores the
originals.

A span's *self* time is its duration minus the durations of the spans
opened inside it. Generator functions (client calls, timer loops, the
benchmark's own load driver) are timed per resumption: every
``send``/``throw`` into the generator is one span, so a client call
that waits 20 simulated milliseconds for its reply costs only the
Python time it actually ran.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SpanProfiler", "LAYER_ENTRY_POINTS"]

#: label -> entry points. A label is ``<layer>`` or ``<layer>.<part>``;
#: the run reports self time per label and per layer. Stage callbacks
#: that the event kernel invokes directly (CPU-queue completions, timer
#: loops, delivery callbacks) are listed although their names are
#: private: they are where the kernel enters the layer, and leaving them
#: out would book their time to the kernel.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [("repro.sim.environment", "Environment", ("run",))],
    "net.send": [("repro.sim.network", "Network", ("send", "broadcast"))],
    "net.size": [("repro.sim.network", None, ("estimate_size",))],
    "consensus": [
        ("repro.zk.zab", "ZabPeer",
         ("handle", "propose", "_heartbeat_loop", "_failure_detector_loop",
          "_election_decision")),
        ("repro.raft.peer", "RaftPeer", ("handle", "propose", "_ticker")),
        ("repro.depspace.bft", "BftPeer",
         ("handle", "on_request", "_timeout_sweep")),
    ],
    "server.zk": [("repro.zk.server", "ZkServer",
                   ("handle_message", "_prep", "_execute_read",
                    "_finish_sync", "_on_deliver", "_expiry_loop"))],
    "server.ds": [("repro.depspace.server", "DsReplica",
                   ("handle_message", "_execute_fast_read",
                    "_execute_request", "_execute_now", "_resync_loop"))],
    "state.tree": [
        ("repro.zk.data_tree", "DataTree",
         ("exists", "get_data", "get_children", "create", "set_data",
          "delete", "kill_session")),
    ],
    "state.watches": [("repro.zk.watches", "WatchManager",
                       ("trigger", "trigger_children"))],
    "state.space": [
        ("repro.depspace.space", "TupleSpace",
         ("out", "rdp", "inp", "rdall", "cas", "replace", "renew_leases",
          "purge_expired")),
    ],
    "ext.verify": [("repro.core.verifier", None, ("verify_source",)),
                   ("repro.core.manager", None, ("verify_source",))],
    "ext.match": [("repro.core.manager", "ExtensionManager",
                   ("match_operation", "match_events"))],
    "ext.exec": [("repro.core.manager", "ExtensionManager",
                  ("execute_operation", "execute_event"))],
    "ext.bind": [
        ("repro.ezk.integration", "EzkBinding",
         ("_intercept", "_on_events")),
        ("repro.eds.integration", "EdsBinding",
         ("_intercept", "_on_events")),
    ],
    "ext.proxy": [
        ("repro.ezk.state_proxy", "ZkBufferedState",
         ("create", "delete", "read", "exists", "update", "cas",
          "sub_objects", "block", "monitor")),
        ("repro.eds.state_proxy", "DsDirectState",
         ("create", "delete", "read", "exists", "update", "cas",
          "sub_objects", "block", "monitor")),
    ],
    "client": [
        ("repro.zk.client", "ZkClient",
         ("_on_message", "_expire", "_ping_loop", "connect", "close",
          "create", "delete", "set_data", "get_data", "get_children",
          "exists", "multi", "sync")),
        ("repro.depspace.client", "DsClient",
         ("_on_message", "_renew_loop", "out", "rdp", "inp", "rd", "in_",
          "cas", "replace", "rdall")),
        ("repro.recipes.zk_adapter", "ZkCoordClient",
         ("create", "delete", "read", "update", "cas", "sub_objects",
          "register_extension", "acknowledge_extension")),
        ("repro.recipes.ds_adapter", "DsCoordClient",
         ("create", "delete", "read", "update", "cas", "sub_objects",
          "register_extension", "acknowledge_extension")),
        ("repro.recipes.queue", "TraditionalQueue", ("add", "remove")),
        ("repro.recipes.queue", "ExtensionQueue", ("add", "remove")),
        ("repro.recipes.counter", "ExtensionSharedCounter",
         ("increment", "read")),
    ],
}


class SpanProfiler:
    """Span stack with per-label self time and per-function call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: calls per wrapped function, keyed ``Owner.name``.
        self.calls: Dict[str, int] = defaultdict(int)
        #: summed duration of spans opened with an empty stack.
        self.root_s = 0.0
        #: open spans: [label, start, time spent in child spans].
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._labels: Dict[str, str] = {}

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, label: str) -> list:
        frame = [label, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = perf_counter() - frame[1]
        stack = self._stack
        stack.pop()
        label = frame[0]
        self.self_s[label] += duration - frame[2]
        self.total_s[label] += duration
        if stack:
            stack[-1][2] += duration
        else:
            self.root_s += duration

    # -- wrappers ----------------------------------------------------------

    def wrap(self, label: str, fn: Callable, key: str) -> Callable:
        """Wrap ``fn``; generator functions are timed per resumption."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator_function(label, fn, key)
        enter, leave, calls = self._enter, self._exit, self.calls

        @wraps(fn)
        def spanned(*args, **kwargs):
            calls[key] += 1
            frame = enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return spanned

    def _wrap_generator_function(self, label: str, fn: Callable,
                                 key: str) -> Callable:
        enter, leave, calls = self._enter, self._exit, self.calls

        @wraps(fn)
        def spanned(*args, **kwargs):
            calls[key] += 1
            gen = fn(*args, **kwargs)
            value, error = None, None
            while True:
                frame = enter(label)
                try:
                    if error is None:
                        yielded = gen.send(value)
                    else:
                        yielded = gen.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    leave(frame)
                try:
                    value, error = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # delivered into ``gen``
                    value, error = None, exc

        return spanned

    def patch(self, owner: object, attribute: str, label: str) -> None:
        original = inspect.getattr_static(owner, attribute)
        self._patched.append((owner, attribute, original))
        key = f"{getattr(owner, '__name__', owner)}.{attribute}"
        self._labels[key] = label
        setattr(owner, attribute,
                self.wrap(label, getattr(owner, attribute), key))

    def install(self,
                extra: Optional[Dict[str, List[Tuple[object, str]]]] = None
                ) -> None:
        """Patch every entry point in :data:`LAYER_ENTRY_POINTS`.

        ``extra`` maps labels to further ``(owner, attribute)`` pairs —
        the benchmark's own driver loops.
        """
        for label, points in LAYER_ENTRY_POINTS.items():
            for module_name, class_name, names in points:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                for name in names:
                    self.patch(owner, name, label)
        # ``repro.sim`` re-exports estimate_size; callers that import it
        # from the package at call time must see the wrapper too.
        sim = importlib.import_module("repro.sim")
        network = importlib.import_module("repro.sim.network")
        self._patched.append((sim, "estimate_size", sim.estimate_size))
        sim.estimate_size = network.estimate_size
        for label, pairs in (extra or {}).items():
            for owner, name in pairs:
                self.patch(owner, name, label)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reports -----------------------------------------------------------

    def calls_of(self, label: str) -> int:
        """Calls into every entry point under ``label`` (or its parts)."""
        return sum(n for key, n in self.calls.items()
                   if self._labels[key] == label
                   or self._labels[key].startswith(label + "."))

    def self_of(self, label: str) -> float:
        """Self time under ``label`` and its parts."""
        return sum(s for name, s in self.self_s.items()
                   if name == label or name.startswith(label + "."))
