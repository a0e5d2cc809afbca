"""The gray-failure window comes from the victim's destination record.

``silence_window`` reads the first run of closed, byteless epochs out of
the victim's ``bytes_by_epoch``; no diagnosis path reads the fault's
timing knobs.  A drop that heals is still localized over the epochs it
silenced, a drop that silences no whole epoch names no suspect and
says why, and overwriting ``fault_time`` or ``skew_ms`` after the run
changes no verdict.
"""

import pytest

from repro.analyzer.netdebug import silence_window
from repro.core.epoch import EpochRange
from repro.core.rng import seed_run
from repro.hostd.records import FlowRecord
from repro.scenarios.gray_failure import GrayFailureScenario
from repro.scenarios.multi_fault import MultiFaultScenario
from repro.simnet.packet import FlowKey

SEEDS = (1729, 1733, 4104)


def _record(bytes_by_epoch):
    flow = FlowKey("h1_0", "h4_0", 9000, 9000, 17)
    return FlowRecord(flow=flow, bytes_by_epoch=dict(bytes_by_epoch))


class TestRule:
    @pytest.mark.parametrize("seen, now, window", [
        ({0: 9, 1: 9}, 5, EpochRange(2, 4)),          # silent to now
        ({0: 9, 1: 9, 4: 9}, 6, EpochRange(2, 3)),    # bytes resume
        ({0: 9, 2: 9, 3: 9, 5: 9}, 7, EpochRange(1, 1)),   # first run
        ({1: 9, 2: 9}, 4, EpochRange(3, 3)),          # from first seen
        ({0: 9, 1: 0, 2: 9}, 3, EpochRange(1, 1)),    # zero bytes count
    ])
    def test_first_run_of_closed_silent_epochs(self, seen, now, window):
        assert silence_window(_record(seen), now) == window

    @pytest.mark.parametrize("seen, now", [
        ({0: 9, 1: 9, 2: 9}, 3),      # never silent
        ({0: 9, 1: 9}, 2),            # only the open epoch is silent
        ({}, 5),                      # nothing recorded
    ])
    def test_no_closed_silent_epoch_is_no_window(self, seen, now):
        assert silence_window(_record(seen), now) is None

    def test_no_record_is_no_window(self):
        assert silence_window(None, 5) is None


class _Healing(GrayFailureScenario):
    """The silent drop heals at ``heal`` seconds (its fault's ``stop``)."""

    heal = None

    def build(self):
        super().build()
        self.drop_fault.p["stop"] = self.heal


def _run_healing(heal, seed):
    seed_run(seed)
    return type("Healed", (_Healing,), {"heal": heal})().execute()


class TestTransientDrop:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("heal", [0.045, 0.035])
    def test_healed_drop_is_still_localized(self, heal, seed):
        result = _run_healing(heal, seed)
        assert result.measurements["gray_drops"] > 0
        assert [v.suspect for v in result.verdicts] == ["S3", "S3"]

    def test_heal_narrows_the_window_to_the_silent_epochs(self):
        result = _run_healing(0.045, SEEDS[0])
        assert result.measurements["silence_epochs"] == [(2, 3), (2, 3)]

    def test_sub_epoch_drop_names_no_suspect_and_says_why(self):
        result = _run_healing(0.025, SEEDS[0])
        assert result.measurements["gray_drops"] > 0
        assert result.measurements["silence_epochs"] == [None, None]
        for v in result.verdicts:
            assert v.problem == "gray-failure" and v.suspect is None
            assert "no whole epoch of silence" in v.narrative


def _verdicts(result):
    return [(v.problem, v.suspect, v.status, v.narrative,
             v.hosts_consulted) for v in result.verdicts]


class _GrayOverwrite(GrayFailureScenario):
    overwrite = {}

    def collect(self):
        self.p.update(self.overwrite)
        return super().collect()


class _MultiOverwrite(MultiFaultScenario):
    overwrite = {}

    def collect(self):
        self.p.update(self.overwrite)
        return super().collect()


OVERWRITES = [{"fault_time": 0.0}, {"fault_time": 0.045},
              {"skew_ms": 8.0}]


class TestNoTimingKnobRead:
    """Overwriting the timing knobs once the run is over changes no
    verdict: the window comes from what the destination recorded."""

    @pytest.mark.parametrize("scenario", [_GrayOverwrite, _MultiOverwrite])
    @pytest.mark.parametrize("overwrite", OVERWRITES)
    def test_overwritten_knobs_leave_verdicts_alone(self, scenario,
                                                    overwrite):
        seed_run(SEEDS[0])
        untouched = scenario().execute()
        seed_run(SEEDS[0])
        knobbed = type("Knobbed", (scenario,),
                       {"overwrite": overwrite})().execute()
        assert _verdicts(knobbed) == _verdicts(untouched)

    def test_untouched_verdicts_name_the_fault(self):
        seed_run(SEEDS[0])
        gray = _GrayOverwrite().execute()
        assert [v.suspect for v in gray.verdicts] == ["S3", "S3"]
        multi = _MultiOverwrite().execute()
        assert multi.verdict("gray-failure").suspect == "leaf1"


class TestUpstreamNarrative:
    def test_only_switches_before_the_cut_are_upstream(self):
        # at skew_ms=10, S4's clock runs ahead of the embedder's and its
        # pointer names h4_0 in the window through pre-fault residue:
        # it forwards, but it is past the cut, not upstream of it
        seed_run(SEEDS[0])
        result = GrayFailureScenario(skew_ms=10.0).execute()
        for v in result.verdicts:
            assert v.suspect == "S3"
            assert " at S1, S2 upstream switch(es), never at S3" \
                in v.narrative
