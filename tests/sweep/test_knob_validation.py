"""Registration-time knob validation: misuse fails at import time,
naming the offender — the runtime complement to reprolint's
``knob-declaration`` rule (which catches the same drift statically).
"""

import pytest

from repro.scenarios import REGISTRY as SCENARIOS
from repro.sweep import SWEEPS, SweepError, SweepSpec


def _spec(**overrides):
    base = dict(
        name="probe",
        scenario="incast",
        summary="s",
        expect_problem="none",
        axes={"senders": "n_senders"},
        default_grid={"senders": (2, 4)},
        nightly_grid={"senders": (2,)},
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def registry(empty_like):
    return empty_like(SWEEPS)


def test_valid_bindings_register(registry):
    assert "n_senders" in SCENARIOS.get("incast").spec.knobs
    registry.register(_spec())
    assert "probe" in registry


def test_axis_bound_to_undeclared_knob_fails(registry):
    with pytest.raises(SweepError, match=(
            r"sweep 'probe': axis 'senders' binds knob 'sender_count', "
            r"which scenario 'incast' does not declare")):
        registry.register(_spec(axes={"senders": "sender_count"}))


def test_base_knob_naming_undeclared_knob_fails(registry):
    with pytest.raises(SweepError,
                       match="base_knobs names knob 'not_a_knob'"):
        registry.register(_spec(base_knobs={"not_a_knob": 3}))


def test_expect_suspect_knob_must_be_declared(registry):
    with pytest.raises(SweepError,
                       match="expect_suspect_knob names knob 'ghost'"):
        registry.register(_spec(expect_suspect_knob="ghost"))


def test_unknown_scenario_skips_binding_validation(registry):
    # nothing to validate against; reprolint's knob-declaration rule
    # still covers literal SweepSpec declarations statically
    registry.register(_spec(scenario="not-registered"))
    assert "probe" in registry


def test_every_registered_sweep_passed_validation():
    """The import-time catalogue re-validates cleanly (no legacy escape)."""
    for spec in SWEEPS.values():
        SWEEPS.check(spec)
