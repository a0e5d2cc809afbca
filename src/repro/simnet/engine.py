"""Discrete-event simulation engine.

The engine is the substrate everything else in :mod:`repro.simnet` runs on.
It is a classic calendar-queue simulator: events are ``(time, seq, fn)``
triples in a binary heap, executed in non-decreasing time order.  Ties are
broken by insertion order so the simulation is fully deterministic.

Ordering contract — load-bearing: :mod:`repro.simnet.link` compares
``now`` with a stored ``busy_until``.  Events run by time, then by
**scheduling order**; the clock **never moves backward**, within a ``run``
or across back-to-back ones; a same-instant tie that must not hang on
scheduling order is a rule stated by its owner (today one, the transmitter's
*a departure due at t is served before an arrival at t is judged*).

Time is measured in **seconds** as a float.  The scenarios in the paper
span microseconds (packet serialization on 1-10 Gbps links) to seconds
(query latencies), which float seconds represent with ample precision.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> handle = sim.schedule(0.5, fired.append, "a")
>>> sim.schedule(0.25, fired.append, "b")  # doctest: +ELLIPSIS
<repro.simnet.engine.EventHandle object at ...>
>>> sim.run()
>>> fired
['b', 'a']
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class SimulationError(Exception):
    """Raised on invalid use of the simulation engine."""


class EventHandle:
    """Handle to a scheduled event; allows cancellation.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped.  ``cancelled`` is public so callers can inspect state.
    """

    __slots__ = ("time", "cancelled", "_fn", "_args", "_kwargs")

    def __init__(self, time: float, fn: Callable, args: tuple, kwargs: dict):
        self.time = time
        self.cancelled = False
        self._fn = fn
        self._args = args
        self._kwargs = kwargs

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def fire(self) -> None:
        if not self.cancelled:
            self._fn(*self._args, **self._kwargs)


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulated clock value in seconds.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable, *args: Any,
                 **kwargs: Any) -> EventHandle:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` seconds from now.

        Returns an :class:`EventHandle` that can be used to cancel the event.
        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args, **kwargs)

    def schedule_at(self, when: float, fn: Callable, *args: Any,
                    **kwargs: Any) -> EventHandle:
        """Schedule ``fn`` at absolute simulated time ``when`` (seconds)."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self._now}")
        handle = EventHandle(when, fn, args, kwargs)
        heapq.heappush(self._heap, (when, next(self._seq), handle))
        return handle

    # -- fire-and-forget fast path --------------------------------------------

    def call_after(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Schedule ``fn(arg)`` ``delay`` seconds from now — no handle.

        The lightweight counterpart of :meth:`schedule` for the
        per-packet hot path (serialization, propagation, CBR spacing):
        the event is a bare ``(when, seq, fn, arg)`` tuple in the same
        heap, so ordering and determinism are identical to
        :meth:`schedule`, but no :class:`EventHandle` is allocated and
        the event cannot be cancelled.  Use :meth:`schedule` whenever
        cancellation is possible.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Absolute-time variant of :meth:`call_after`."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now {self._now}")
        heapq.heappush(self._heap, (when, next(self._seq), fn, arg))

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have been executed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose naturally — unless ``max_events`` stopped the run with an
        event at or before ``until`` still pending (the clock then stays
        put, so the next ``run`` cannot move it back).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            executed = 0
            heap = self._heap
            pop = heapq.heappop
            while heap:
                entry = heap[0]
                when = entry[0]
                if until is not None and when > until:
                    break
                pop(heap)
                if len(entry) == 4:
                    # call_after fast-path event: (when, seq, fn, arg)
                    self._now = when
                    entry[2](entry[3])
                else:
                    handle = entry[2]
                    if handle.cancelled:
                        continue
                    self._now = when
                    handle.fire()
                self._processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if (until is not None and self._now < until
                    and not (heap and heap[0][0] <= until)):
                self._now = until
        finally:
            self._running = False

    def run_until_idle(self) -> None:
        """Run until no events remain."""
        self.run()


class AlternatingTimer:
    """Alternates between two callbacks with independent dwell times.

    ``fn_a`` fires ``start_delay`` seconds from construction; ``fn_b``
    fires ``period_a`` seconds after that; ``fn_a`` again ``period_b``
    seconds later, and so on.  The canonical use is a two-state fault
    process — e.g. a link that stays down for ``period_a`` and up for
    ``period_b`` (:class:`repro.simnet.topology.LinkFlapper`).
    """

    def __init__(self, sim: Simulator, period_a: float, fn_a: Callable,
                 period_b: float, fn_b: Callable, *,
                 start_delay: float = 0.0):
        if period_a <= 0 or period_b <= 0:
            raise SimulationError("dwell periods must be positive")
        self._sim = sim
        self._periods = (period_a, period_b)
        self._fns = (fn_a, fn_b)
        self._phase = 0
        self._stopped = False
        self.transitions = 0
        self._handle = sim.schedule(start_delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        phase = self._phase
        self.transitions += 1
        self._fns[phase]()
        if self._stopped:  # callback may stop the timer
            return
        self._phase = 1 - phase
        self._handle = self._sim.schedule(self._periods[phase], self._fire)

    def stop(self) -> None:
        """Stop the timer.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


class PeriodicTimer:
    """Fires a callback every ``period`` seconds until stopped.

    Used for epoch rotation at switches, throughput sampling windows at
    end-hosts, and rule updates in the OpenFlow model.
    """

    def __init__(self, sim: Simulator, period: float, fn: Callable,
                 *args: Any, start_delay: Optional[float] = None,
                 jitter_fn: Optional[Callable[[], float]] = None):
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._fn = fn
        self._args = args
        self._stopped = False
        self._jitter_fn = jitter_fn
        self.ticks = 0
        first = period if start_delay is None else start_delay
        self._handle = sim.schedule(first, self._tick)

    @property
    def period(self) -> float:
        return self._period

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._fn(*self._args)
        if self._stopped:  # callback may stop the timer
            return
        delay = self._period
        if self._jitter_fn is not None:
            delay = max(0.0, delay + self._jitter_fn())
        self._handle = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        """Stop the timer.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
