"""Multi-fault scenario: every composed fault must be attributed
independently — right problem, right suspect, per site."""

import pytest

from repro.core.epoch import EpochRange
from repro.scenarios import ScenarioError, multi_fault, run_scenario


def _summary(result):
    return next((v for v in result.verdicts
                 if v.problem == "multi-fault"), None)


class TestDefaultComposition:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("multi-fault")   # silent-drop+ecmp-polarization

    def test_both_faults_attributed(self, result):
        assert _summary(result) is not None, \
            [(v.problem, v.suspect) for v in result.verdicts]

    def test_gray_failure_pinned_on_site0_leaf(self, result):
        v = result.verdict("gray-failure")
        assert v is not None and v.suspect == "leaf1"

    def test_polarization_pinned_on_a_spine(self, result):
        v = result.verdict("ecmp-polarization")
        assert v is not None and v.imbalanced
        assert v.suspect in ("spine0", "spine1")

    def test_both_faults_really_fired(self, result):
        assert result.measurements["gray_drops"] > 0
        plan = result.measurements["fault_plan"]
        assert len(plan) == 2
        assert all("[active]" in line for line in plan)


class TestOtherCompositions:
    @pytest.mark.parametrize("composition", [
        "silent-drop+link-flap",
        "ecmp-polarization+link-down",
        "silent-drop+silent-drop",
    ])
    def test_pairwise_compositions_attribute(self, composition):
        result = run_scenario("multi-fault", faults=composition,
                              slot_flows=6, duration=0.050)
        assert _summary(result) is not None, \
            [(v.problem, v.suspect) for v in result.verdicts]

    def test_single_fault_composition(self):
        result = run_scenario("multi-fault", faults="silent-drop")
        assert _summary(result) is not None
        assert len(result.verdicts) == 2     # the site verdict + summary

    def test_three_fault_composition(self):
        result = run_scenario(
            "multi-fault", faults="link-down+ecmp-polarization+silent-drop")
        assert _summary(result) is not None
        assert len(result.verdicts) == 4

    def test_link_faults_name_their_site_link(self):
        result = run_scenario("multi-fault",
                              faults="link-flap+link-down")
        suspects = [v.suspect for v in result.verdicts
                    if v.problem == "link-flap"]
        assert suspects == ["leaf0-spine0", "leaf2-spine0"]


class TestSilenceWindow:
    @pytest.mark.parametrize("skew_ms, window", [
        (0.0, EpochRange(2, 3)),
        # leaf0's skewed clock tags 1000 bytes of pre-fault residue into
        # epoch 2, so the record's first silent epoch is 3
        (2.0, EpochRange(3, 3)),
    ])
    def test_window_is_the_victims_silent_record_epochs(
            self, skew_ms, window, monkeypatch):
        # the silent-drop slot reads gray-failure's rule: the first run
        # of closed epochs in which the victim's destination record holds
        # no bytes, on the site's embedder (source leaf) clock
        windows = []
        diagnose = multi_fault.diagnose_gray_failure

        def spy(analyzer, flow, *, silence_epochs):
            windows.append(silence_epochs)
            return diagnose(analyzer, flow, silence_epochs=silence_epochs)

        monkeypatch.setattr(multi_fault, "diagnose_gray_failure", spy)
        result = run_scenario("multi-fault", faults="silent-drop",
                              slot_flows=4, duration=0.045,
                              skew_ms=skew_ms)
        victim = result.scenario.sites[0].affected[0]
        seen = result.deployment.host_agents[victim.dst].store.get(
            victim).bytes_by_epoch
        now = result.deployment.datapaths["leaf0"].clock.epoch_of(
            result.sim_time)
        assert windows == [window]
        assert all(seen.get(e) for e in range(min(seen), window.lo))
        assert not any(seen.get(e) for e in window)
        assert window.hi + 1 == now or seen.get(window.hi + 1)
        assert result.verdict("gray-failure").suspect == "leaf1"


class TestValidation:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ScenarioError, match="composable"):
            run_scenario("multi-fault", faults="silent-drop+bit-rot")

    def test_empty_composition_rejected(self):
        with pytest.raises(ScenarioError, match="at least one"):
            run_scenario("multi-fault", faults="+")
