"""The discrete-event simulation environment: virtual clock + event queue.

All distributed-system components in this repository (replicas, clients,
the network) run inside one :class:`Environment`. Virtual time is a float
in **milliseconds** throughout the code base, which matches the units the
paper's figures use.

The pending-event queue is the calendar queue of
:mod:`repro.sim._calqueue`: O(1) pushes, far-future timers parked in
cold buckets, same-timestamp bursts drained from one sorted snapshot.
It drains in exactly ``(when, push order)`` order; the test suite pins
that against a plain ``heapq`` oracle (tests/test_sim_determinism.py).
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from ._calqueue import CalendarQueue
from .events import AllOf, AnyOf, Callback, Event, Process, Timeout

__all__ = ["Environment", "Infeasible", "kernel_backend"]


def kernel_backend() -> str:
    """'compiled' when a native _calqueue extension is loaded, else 'pure'."""
    from . import _calqueue
    path = getattr(_calqueue, "__file__", "") or ""
    return "pure" if path.endswith(".py") else "compiled"


class Infeasible(RuntimeError):
    """Raised when ``run(until=...)`` is asked to reach an unreachable state."""


class Environment:
    """Owns the virtual clock and the pending-event queue.

    Typical driver loop::

        env = Environment()
        env.process(client_main(env))
        env.run(until=10_000.0)      # run 10 simulated seconds
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: total events processed since construction; benchmarks divide
        #: it by elapsed wall time for the kernel's events/s rate.
        self.events_processed = 0
        #: the run's observability plane (:class:`repro.obs.Observability`),
        #: installed by the first server whose config carries an
        #: ``ObsConfig``; None keeps every tracing milestone to a
        #: single attribute-read-plus-comparison.
        self.obs = None
        self._cal = CalendarQueue(self)
        #: every producer (schedule/defer/succeed/network delivery)
        #: files occurrences through this one bound callable.
        self._push = self._cal.push

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    # -- scheduling ----------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue ``event`` for processing ``delay`` ms from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self._push(self._now + delay, event)

    # -- factories -----------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def defer(self, delay: float, fn, *args) -> Callback:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        The cheap alternative to ``timeout().add_callback(...)`` for
        fire-and-forget work: no Event allocation, no callbacks list,
        no closure. The returned :class:`Callback` is not awaitable.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        callback = Callback(fn, args)
        self._push(self._now + delay, callback)
        return callback

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a generator as a simulation process."""
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        event = self._cal.pop_one()
        if event is None:
            raise Infeasible("no scheduled events")
        self.events_processed += 1
        event._process()

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the queue is empty."""
        return self._cal.peek()

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue drains,
        * a number — run until virtual time reaches that instant,
        * an :class:`Event` — run until that event is processed and return
          its value (re-raising its exception if it failed).
        """
        cal = self._cal
        if until is None:
            cal.drain(float("inf"), None)
            return None

        if isinstance(until, Event):
            status = cal.drain(float("inf"), until)
            if status == 0 and not until.processed:
                raise Infeasible(
                    "event queue drained before the awaited event triggered")
            if not until.ok:
                raise until._value
            return until._value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError("cannot run backwards in time")
        cal.drain(deadline, None)
        self._now = deadline
        return None
