"""Discrete-event simulation substrate.

This package replaces the paper's physical cluster: a deterministic
generator-process kernel (:mod:`~repro.sim.events`,
:mod:`~repro.sim.environment`), a latency- and byte-accounting network
(:mod:`~repro.sim.network`), and measurement helpers
(:mod:`~repro.sim.stats`).
"""

from .environment import Environment, Infeasible, kernel_backend
from .events import (AllOf, AnyOf, Callback, Event, Interrupted, Process,
                     Timeout)
from .network import (MESSAGE_HEADER_BYTES, LatencyModel, Network,
                      TrafficRule, estimate_size)
from .resources import FifoResource
from .stats import ExperimentMetrics, IntervalThroughput, LatencyRecorder, summarize

__all__ = [
    "Environment",
    "Infeasible",
    "kernel_backend",
    "Event",
    "Timeout",
    "Callback",
    "Process",
    "Interrupted",
    "AnyOf",
    "AllOf",
    "Network",
    "LatencyModel",
    "TrafficRule",
    "estimate_size",
    "MESSAGE_HEADER_BYTES",
    "FifoResource",
    "LatencyRecorder",
    "IntervalThroughput",
    "ExperimentMetrics",
    "summarize",
]
