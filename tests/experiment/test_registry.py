"""Experiment registration: a study that cannot run is rejected when it
is declared, not on every run."""

import pytest

from repro.experiment import EXPERIMENTS, ExperimentError, ExperimentSpec


@pytest.fixture
def registry(empty_like):
    return empty_like(EXPERIMENTS)


def _spec(**overrides):
    base = dict(name="probe", sweep="clock-skew", summary="s",
                axes={"skew_ms": (0.0, 5.0)}, reps=2)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_valid_study_registers(registry):
    registry.register(_spec(base_knobs={"n_flows": 2}))
    assert "probe" in registry


def test_base_knob_the_scenario_does_not_declare_is_rejected(registry):
    with pytest.raises(ExperimentError, match=(
            r"experiment 'probe': unknown knob\(s\) for 'gray-failure': "
            r"\['no_such_knob'\]; valid: ")):
        registry.register(_spec(base_knobs={"no_such_knob": 1}))
    assert "probe" not in registry


def test_base_knob_overriding_a_swept_axis_is_rejected(registry):
    with pytest.raises(ExperimentError, match="override swept axis"):
        registry.register(_spec(base_knobs={"skew_ms": 1.0}))


def test_unknown_sweep_is_rejected(registry):
    with pytest.raises(ExperimentError,
                       match="experiment 'probe': unknown sweep 'nope'"):
        registry.register(_spec(sweep="nope"))


def test_every_registered_study_passes_the_check():
    for spec in EXPERIMENTS.values():
        EXPERIMENTS.check(spec)
