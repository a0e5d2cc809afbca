"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet.engine import (COMPACT_MIN, PeriodicTimer, SimulationError,
                                 Simulator)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, fired.append, "late")
        sim.schedule(0.1, fired.append, "early")
        sim.schedule(0.3, fired.append, "mid")
        sim.run()
        assert fired == ["early", "mid", "late"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(0.0, fired.append, "inner")

        sim.schedule(1.0, outer)
        sim.schedule(1.0, fired.append, "sibling")
        sim.run()
        assert fired == ["outer", "sibling", "inner"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, bad):
        # a NaN compares false with everything: accepted, it would fire
        # first, set now to NaN and hang run(until=...)
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_at(bad, lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            sim.call_after(bad, lambda _: None)
        with pytest.raises(SimulationError, match="finite"):
            sim.call_at(bad, lambda _: None)
        assert len(sim._heap) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_until_rejected(self, bad):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="finite"):
            sim.run(until=bad)
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_call_at_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=1.0)
        with pytest.raises(SimulationError, match="past"):
            sim.call_at(0.5, lambda _: None)

    def test_schedule_returns_distinct_ids(self):
        sim = Simulator()
        ids = [sim.schedule(0.1, lambda: None) for _ in range(3)]
        assert len(set(ids)) == 3 and all(isinstance(i, int) for i in ids)

    def test_start_time(self):
        sim = Simulator(start_time=10.0)
        assert sim.now == 10.0
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10.5]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(0.2, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.events_processed == 0
        assert len(sim._heap) == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(0.2, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.1, fired.append, "keep")
        drop = sim.schedule(0.2, fired.append, "drop")
        sim.cancel(drop)
        sim.run()
        assert fired == ["keep"]

    def test_cancel_from_inside_an_earlier_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(1.0, fired.append, "later")
        sim.schedule(1.0, fired.append, "after")
        sim.schedule(0.5, lambda: sim.cancel(later))
        sim.run()
        assert fired == ["after"]
        assert sim.events_processed == 2

    def test_cancel_of_an_event_that_ran_is_a_noop(self):
        sim = Simulator()
        fired = []
        box = {}

        def own():
            fired.append("own")
            sim.cancel(box["own"])   # the event that is running now

        box["own"] = sim.schedule(0.1, own)
        done = sim.schedule(0.2, fired.append, "done")
        sim.run()
        sim.cancel(done)             # long gone
        assert fired == ["own", "done"]
        assert sim.events_processed == 2
        assert not sim._armed        # no tombstone left behind

    def test_cancelled_majority_is_compacted_away(self):
        sim = Simulator()
        fired = []
        n = 4 * COMPACT_MIN
        events = [sim.schedule(0.1 * (i + 1), fired.append, i)
                  for i in range(n)]
        for i, event in enumerate(events):
            if i % 4:
                sim.cancel(event)
                live = n - (i - i // 4)
                assert len(sim._heap) <= 2 * live + COMPACT_MIN
        # the heap was rebuilt without the dead: far fewer than n remain
        assert len(sim._heap) < n // 2
        sim.run()
        assert fired == list(range(0, n, 4))
        assert sim.events_processed == n // 4 and len(sim._heap) == 0

    def test_cancelled_head_does_not_hold_the_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        sim.cancel(dead)
        sim.run(until=10, max_events=1)
        # only the cancelled event is left at or before `until`
        assert sim.now == 10 and len(sim._heap) == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0  # clock advanced to the until bound
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_exact_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_clock_never_runs_backward_when_max_events_stops_short(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run(until=10, max_events=1)
        # the event at t=2 is still pending: landing on `until` now would
        # make the next run move the clock back to 2.0
        assert seen == [1.0] and sim.now == 1.0
        sim.run()
        assert seen == [1.0, 2.0] and sim.now == 2.0
        sim.run(until=10)
        assert sim.now == 10

    def test_not_reentrant(self):
        sim = Simulator()
        err = {}

        def recurse():
            try:
                sim.run()
            except SimulationError as exc:
                err["raised"] = exc

        sim.schedule(0.1, recurse)
        sim.run()
        assert "raised" in err

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_pending_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert len(sim._heap) == 2
        sim.run()
        assert len(sim._heap) == 0


class TestPeriodicTimer:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 0.1, lambda: ticks.append(sim.now))
        sim.run(until=0.55)
        assert len(ticks) == 5
        assert ticks[0] == pytest.approx(0.1)
        assert ticks[-1] == pytest.approx(0.5)

    def test_stop_halts_timer(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 0.1, lambda: ticks.append(sim.now))
        sim.schedule(0.25, timer.stop)
        sim.run(until=1.0)
        assert len(ticks) == 2

    def test_stop_from_callback(self):
        sim = Simulator()
        timer_box = {}

        def cb():
            timer_box["t"].stop()

        timer_box["t"] = PeriodicTimer(sim, 0.1, cb)
        sim.run(until=1.0)
        assert timer_box["t"].ticks == 1

    def test_invalid_period(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_stop_leaves_no_live_event(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 0.1, lambda: None)
        sim.run(until=0.15)
        timer.stop()
        timer.stop()
        sim.run(until=1.0)
        assert timer.ticks == 1 and sim.events_processed == 1
        assert not sim._armed
