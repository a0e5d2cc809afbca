"""Scenario.execute owns collector policy: cyclic GC sits out the run.

A run makes no garbage cycles (tests/scenarios/test_registry.py pins
that per scenario), so ``execute`` pauses the collector from build to
verdict.  These tests pin the contract around the pause: the caller's
setting comes back as it was, a caller that disabled GC sees no
collection at all, and back-to-back runs whose results are dropped do
not pile up dead networks.
"""

import gc

import pytest

from repro.scenarios import (REGISTRY, IncastScenario, ScenarioError,
                             run_scenario)

INCAST_SMOKE = REGISTRY.get("incast").spec.smoke_knobs


@pytest.fixture
def gc_state():
    """Restore the collector's enabled flag whatever a test leaves."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collections():
    """Count the collections that start while the fixture is live."""
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(note)
    yield started
    gc.callbacks.remove(note)


class _Recording(IncastScenario):
    """The incast, noting whether GC is enabled inside each phase and
    how many collections (from the ``collections`` fixture's list)
    started between build and verdict."""

    def __init__(self, collections, **knobs):
        super().__init__(**knobs)
        self.started = collections
        self.enabled: dict[str, bool] = {}
        self.collections_during = -1

    def build(self):
        self.enabled["build"] = gc.isenabled()
        self._started_at_build = len(self.started)
        super().build()

    def run(self):
        self.enabled["run"] = gc.isenabled()
        super().run()

    def collect(self):
        self.enabled["collect"] = gc.isenabled()
        return super().collect()

    def diagnose(self):
        self.enabled["diagnose"] = gc.isenabled()
        verdicts = super().diagnose()
        self.collections_during = (len(self.started)
                                   - self._started_at_build)
        return verdicts


class _NoNetwork(IncastScenario):
    """A build that sets no network: execute raises after build."""

    def build(self):
        pass


class TestCallerPolicy:
    def test_enabled_before_is_enabled_after(self, gc_state):
        gc.enable()
        result = run_scenario("incast", **INCAST_SMOKE)
        assert result.verdicts
        assert gc.isenabled()

    def test_enabled_comes_back_when_a_phase_raises(self, gc_state):
        gc.enable()
        with pytest.raises(ScenarioError, match="must set"):
            _NoNetwork(**INCAST_SMOKE).execute()
        assert gc.isenabled()

    def test_disabled_before_stays_disabled_and_nothing_collects(
            self, gc_state, collections):
        gc.disable()
        result = run_scenario("incast", **INCAST_SMOKE)
        assert result.verdicts
        assert not gc.isenabled()
        assert collections == []

    def test_collector_is_off_inside_every_phase(self, gc_state,
                                                 collections):
        gc.enable()
        scenario = _Recording(collections, **INCAST_SMOKE)
        gc.collect()         # the young generation starts out empty
        collections.clear()
        scenario.execute()
        assert scenario.enabled == {"build": False, "run": False,
                                    "collect": False, "diagnose": False}
        # one generation-1 pass on entry, then none from build to verdict
        assert collections[:1] == [1]
        assert scenario.collections_during == 0


def test_dropped_results_do_not_pile_up(gc_state):
    """Fifteen incasts back to back, each result dropped: the tracked
    object count stays within two scenarios' worth of the baseline.

    A caller that reads its result allocates, and the young collection
    that triggers promotes the still-held network out of generation 0
    (the explicit ``gc.collect(0)`` stands in for that).  Without the
    pass on entry, each dropped network then waits in generation 1,
    which a paused loop rarely collects."""
    gc.enable()
    gc.collect()
    baseline = len(gc.get_objects())
    held = run_scenario("incast", **INCAST_SMOKE)
    one_run = len(gc.get_objects()) - baseline
    del held
    gc.collect()
    assert one_run > 0
    for i in range(15):
        result = run_scenario("incast", **INCAST_SMOKE)
        gc.collect(0)
        del result
        tracked = len(gc.get_objects())
        assert tracked <= baseline + 2 * one_run, (
            f"run {i}: {tracked} tracked objects, baseline {baseline}, "
            f"one run holds {one_run}")
