"""Discrete-event simulation engine.

The engine is the substrate everything else in :mod:`repro.simnet` runs on.
It is a classic calendar-queue simulator: every event is one
``(when, seq, fn, arg)`` tuple in a binary heap, and running it calls
``fn(arg)``.  Events execute in non-decreasing time order; ties are broken
by insertion order so the simulation is fully deterministic.

Ordering contract — load-bearing: :mod:`repro.simnet.link` compares
``now`` with a stored ``busy_until``.  Events run by time, then by
**scheduling order**; the clock **never moves backward**, within a ``run``
or across back-to-back ones; a same-instant tie that must not hang on
scheduling order is a rule stated by its owner (today one, the transmitter's
*a departure due at t is served before an arrival at t is judged*).

Clock contract: ``now`` is a plain attribute, read on every hop without a
call.  Only :meth:`Simulator.run` writes it (reprolint's ``sim-clock``
rule holds every other module to reading it), and it only ever moves
forward.

Cancelled events do not pile up: a :meth:`Simulator.cancel` that leaves
more cancelled than live entries in the heap (and more than
:data:`COMPACT_MIN`) rebuilds the heap in place without them, so a
TCP sender re-arming its retransmission timer on every ACK keeps a heap
of live events.  Events pop by ``(when, seq)``, a total order, so the
rebuild moves no event.

Time is measured in **seconds** as a float.  The scenarios in the paper
span microseconds (packet serialization on 1-10 Gbps links) to seconds
(query latencies), which float seconds represent with ample precision.
Every time the engine is handed must be finite: a NaN compares false
with everything, and a NaN event or bound would hang ``run``.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> event = sim.schedule(0.5, fired.append, "a")
>>> sim.schedule(0.25, fired.append, "b")
1
>>> sim.cancel(event)
>>> sim.run()
>>> fired
['b']
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

_INF = math.inf

#: cancelled heap entries tolerated before a compaction is considered:
#: small heaps are not worth rebuilding
COMPACT_MIN = 64


class SimulationError(Exception):
    """Raised on invalid use of the simulation engine."""


def _call(pair: tuple) -> None:
    """Run a :meth:`Simulator.schedule_at` event: ``fn(*args)``."""
    fn, args = pair
    fn(*args)


def _bad_time(when: float, now: float) -> SimulationError:
    if when < now:
        return SimulationError(
            f"cannot schedule in the past: {when} < now {now}")
    return SimulationError(f"event time must be finite, got {when!r}")


def _bad_delay(delay: float) -> SimulationError:
    return SimulationError(
        f"delay must be non-negative and finite, got {delay!r}")


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulated clock value in seconds.
    """

    def __init__(self, start_time: float = 0.0):
        #: current simulated time in seconds; written only by :meth:`run`
        self.now = float(start_time)
        self._heap: list[tuple[float, int, Callable[[Any], Any], Any]] = []
        self._seq = itertools.count()
        #: ids of schedule()d events still due to fire: run() drops a
        #: popped one whose id cancel() took out, and an id leaves when
        #: its event runs, so cancelling a spent event leaves nothing
        self._armed: set[int] = set()
        #: cancelled entries still in the heap
        self._cancelled = 0
        self._running = False
        self._processed = 0

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    def schedule(self, delay: float, fn: Callable, *args: Any) -> int:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the event's id, which :meth:`cancel` takes.  ``delay``
        must be non-negative and finite; zero-delay events run after all
        events already scheduled for the current instant.
        """
        if not 0 <= delay < _INF:
            raise _bad_delay(delay)
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> int:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``
        (seconds); returns the event's id, which :meth:`cancel` takes."""
        if not self.now <= when < _INF:
            raise _bad_time(when, self.now)
        seq = next(self._seq)
        heapq.heappush(self._heap, (when, seq, _call, (fn, args)))
        self._armed.add(seq)
        return seq

    def cancel(self, event: int) -> None:
        """Keep a scheduled event from firing.

        The event stays in the heap and :meth:`run` drops it when it
        pops, until cancelled entries outnumber live ones: then the heap
        is rebuilt in place without them.  Idempotent, and a no-op for
        an event that already ran — which is what a timer stopped from
        inside its own callback cancels.
        """
        armed = self._armed
        if event not in armed:
            return
        armed.remove(event)
        self._cancelled = dead = self._cancelled + 1
        heap = self._heap
        if dead > COMPACT_MIN and 2 * dead > len(heap):
            call = _call
            heap[:] = [e for e in heap if e[2] is not call or e[1] in armed]
            heapq.heapify(heap)
            self._cancelled = 0

    # -- fire-and-forget fast path --------------------------------------------

    def call_after(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None) -> None:
        """Schedule ``fn(arg)`` ``delay`` seconds from now; not cancellable.

        The per-packet hot path (serialization, propagation, CBR
        spacing): ``fn`` and ``arg`` go into the heap as they are, with
        no argument packing and no id to track.  Use :meth:`schedule`
        whenever cancellation is possible.
        """
        if not 0 <= delay < _INF:
            raise _bad_delay(delay)
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None],
                arg: Any = None) -> None:
        """Absolute-time variant of :meth:`call_after`."""
        if not self.now <= when < _INF:
            raise _bad_time(when, self.now)
        heapq.heappush(self._heap, (when, next(self._seq), fn, arg))

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have been executed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose naturally — unless ``max_events`` stopped the run with a
        live (uncancelled) event at or before ``until`` still pending (the
        clock then stays put, so the next ``run`` cannot move it back).
        """
        if until is not None and not math.isfinite(until):
            raise SimulationError(f"until must be finite, got {until!r}")
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            executed = 0
            heap = self._heap
            armed = self._armed
            pop = heapq.heappop
            call = _call
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                when, seq, fn, arg = pop(heap)
                if fn is call:
                    if seq not in armed:
                        self._cancelled -= 1
                        continue
                    armed.remove(seq)
                self.now = when
                fn(arg)
                self._processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
            if until is not None and self.now < until:
                # a cancelled entry holds nothing, whether or not a
                # compaction has dropped it yet
                while heap and heap[0][2] is call and heap[0][1] not in armed:
                    pop(heap)
                    self._cancelled -= 1
                if not (heap and heap[0][0] <= until):
                    self.now = until
        finally:
            self._running = False


class PeriodicTimer:
    """Fires ``fn()`` every ``period`` seconds until stopped.

    Used for epoch rotation at switches and trigger windows at
    end-hosts.
    """

    def __init__(self, sim: Simulator, period: float, fn: Callable[[], Any]):
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._fn = fn
        self._stopped = False
        self.ticks = 0
        self._event = sim.schedule(period, self._tick)

    def _tick(self) -> None:
        self.ticks += 1
        self._fn()
        if self._stopped:  # callback may stop the timer
            return
        self._event = self._sim.schedule(self._period, self._tick)

    def stop(self) -> None:
        """Stop the timer.  Idempotent."""
        self._stopped = True
        self._sim.cancel(self._event)
