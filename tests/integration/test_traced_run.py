"""The perf ledger's tracer against the live engine.

``benchmarks/ledger/trace.py`` is frozen: it looks the engine's
scheduling calls up by name in ``Simulator.__dict__`` and forwards
``schedule_at(sim, when, dispatch, fn, args, kwargs)`` positionally.
A link-flap run — cancellable ``schedule`` events (the flap chain, the
epoch timers, the TCP RTO) next to fire-and-forget ``call_at`` ones —
must simulate exactly the same under the tracer as without it, and
uninstalling must hand back the engine it found.
"""

from benchmarks.ledger.trace import Tracer
from repro.core.rng import seed_run
from repro.scenarios import run_scenario
from repro.simnet.engine import Simulator

SEED = 1729


def _link_flap():
    seed_run(SEED)
    result = run_scenario("link-flap")
    return result.network.sim.events_processed, result.verdicts


def test_traced_link_flap_simulates_what_an_untraced_one_does():
    events, verdicts = _link_flap()
    before = dict(Simulator.__dict__)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        traced_events, traced_verdicts = _link_flap()
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.calls()["faults"]["self"] > 0   # the flap chain, traced
    assert traced_events == events
    assert traced_verdicts == verdicts
    assert [v.problem for v in verdicts] == ["link-flap"]
    after = dict(Simulator.__dict__)
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)
