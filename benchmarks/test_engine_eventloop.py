"""Event-loop micro-benchmark: the ``call_after`` fast path.

The per-packet simulator hot path (serialization done, propagation
done, CBR spacing) schedules millions of fire-and-forget events per
run.  Every event is one ``(when, seq, fn, arg)`` heap tuple;
:meth:`Simulator.call_after` pushes ``fn`` and ``arg`` as they are,
while the cancellable :meth:`Simulator.schedule` packs its arguments,
hands out an id and checks it against the live set on pop.  This
benchmark drives both paths through the same self-rescheduling chain
and asserts the fast path actually is one.  The absolute fast-path
wall time is gated by ``benchmarks/baselines/engine_eventloop.json``."""

import time

import pytest

from repro.simnet.engine import Simulator

from benchmarks.reporting import emit

N_EVENTS = 300_000
ROUNDS = 3
DELAY = 1e-6


class _HandleChain:
    """Self-rescheduling event via the cancellable schedule()."""

    def __init__(self, sim: Simulator, remaining: int):
        self.sim = sim
        self.remaining = remaining
        sim.schedule(DELAY, self._tick)

    def _tick(self) -> None:
        self.remaining -= 1
        if self.remaining:
            self.sim.schedule(DELAY, self._tick)


class _FastChain:
    """The same chain on the fire-and-forget call_after() path."""

    def __init__(self, sim: Simulator, remaining: int):
        self.sim = sim
        self.remaining = remaining
        sim.call_after(DELAY, self._tick)

    def _tick(self, _arg: object = None) -> None:
        self.remaining -= 1
        if self.remaining:
            self.sim.call_after(DELAY, self._tick)


def _run(chain_cls) -> float:
    sim = Simulator()
    chain_cls(sim, N_EVENTS)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert sim.events_processed == N_EVENTS
    return elapsed


def run_bench():
    handle_s = min(_run(_HandleChain) for _ in range(ROUNDS))
    fast_s = min(_run(_FastChain) for _ in range(ROUNDS))
    return handle_s, fast_s


@pytest.mark.benchmark(group="engine_eventloop")
def test_call_after_fast_path(benchmark):
    handle_s, fast_s = benchmark.pedantic(run_bench, rounds=1,
                                          iterations=1)
    handle_eps = N_EVENTS / handle_s
    fast_eps = N_EVENTS / fast_s
    speedup = handle_s / fast_s
    emit("engine_eventloop", [
        f"events: {N_EVENTS}   rounds: {ROUNDS} (best)",
        f"schedule() cancellable:   {handle_s * 1e3:8.1f} ms   "
        f"{handle_eps:10,.0f} events/s",
        f"call_after() fast path:   {fast_s * 1e3:8.1f} ms   "
        f"{fast_eps:10,.0f} events/s",
        f"speedup: {speedup:5.2f}x",
        "(fast path: fn and arg pushed as they are, no argument "
        "packing, no event id)"],
        data={
            "events": N_EVENTS,
            "handle_s": round(handle_s, 4),
            "fastpath_s": round(fast_s, 4),
            "handle_events_per_s": round(handle_eps),
            "fastpath_events_per_s": round(fast_eps),
            "speedup": round(speedup, 2),
        })

    assert speedup >= 1.1, speedup
