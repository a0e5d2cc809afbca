"""Experiment registration: a run table that cannot run is rejected
when it is declared, naming the offender — the runtime complement to
reprolint's ``knob-declaration`` rule (which catches the same drift
statically)."""

import pytest

from repro.experiment import (EXPERIMENTS, ExperimentError, ExperimentSpec,
                              FigureSpec)
from repro.scenarios import REGISTRY as SCENARIOS


@pytest.fixture
def registry(empty_like):
    return empty_like(EXPERIMENTS)


def _spec(**overrides):
    base = dict(name="probe", scenario="gray-failure", summary="s",
                expect_problem="gray-failure",
                grid={"skew_ms": (0.0, 5.0)}, reps=2)
    base.update(overrides)
    return ExperimentSpec(**base)


def _incast(**overrides):
    base = dict(name="probe", scenario="incast", summary="s",
                expect_problem="none", grid={"n_senders": (2, 4)},
                nightly_grid={"n_senders": (2,)})
    base.update(overrides)
    return ExperimentSpec(**base)


def test_valid_study_registers(registry):
    registry.register(_spec(base_knobs={"n_flows": 2}))
    assert "probe" in registry


def test_valid_knob_grid_registers(registry):
    assert "n_senders" in SCENARIOS.get("incast").spec.knobs
    registry.register(_incast())
    assert "probe" in registry


def test_base_knob_the_scenario_does_not_declare_is_rejected(registry):
    with pytest.raises(ExperimentError, match=(
            r"experiment 'probe': unknown knob\(s\) for 'gray-failure': "
            r"\['no_such_knob'\]; valid: ")):
        registry.register(_spec(base_knobs={"no_such_knob": 1}))
    assert "probe" not in registry


def test_grid_knob_the_scenario_does_not_declare_is_rejected(registry):
    with pytest.raises(ExperimentError, match=(
            r"experiment 'probe': unknown knob\(s\) for 'incast': "
            r"\['sender_count'\]")):
        registry.register(_incast(grid={"sender_count": (2, 4)}))


def test_unknown_scenario_is_rejected(registry):
    with pytest.raises(ExperimentError,
                       match="experiment 'probe': unknown scenario 'nope'"):
        registry.register(_spec(scenario="nope"))


def test_expect_suspect_knob_must_be_declared(registry):
    with pytest.raises(ExperimentError,
                       match="expect_suspect_knob names knob 'ghost'"):
        registry.register(_incast(expect_suspect_knob="ghost"))


def test_figure_must_chart_a_grid_knob(registry):
    figure = FigureSpec(x_axis="alpha_ms", x_label="x", title="t")
    with pytest.raises(ExperimentError,
                       match="figure x_axis 'alpha_ms' is not a grid knob"):
        registry.register(_spec(figure=figure))


def test_empty_grid_is_rejected(registry):
    with pytest.raises(ExperimentError,
                       match="experiment 'probe': needs at least one grid knob"):
        registry.register(_incast(grid={}, nightly_grid={"n_senders": (2,)}))


@pytest.mark.parametrize("field", ["grid", "nightly_grid"])
def test_grid_knob_without_values_is_rejected(registry, field):
    with pytest.raises(ExperimentError, match=(
            "experiment 'probe': grid knob 'n_senders' has no values")):
        registry.register(_incast(**{field: {"n_senders": ()}}))


def test_reps_below_one_is_rejected_at_registration(registry):
    with pytest.raises(ExperimentError,
                       match="experiment 'probe': reps must be >= 1, got 0"):
        registry.register(_incast(reps=0))


def test_nightly_grid_knob_the_scenario_does_not_declare_is_rejected(registry):
    with pytest.raises(ExperimentError, match=(
            r"experiment 'probe': unknown knob\(s\) for 'incast': "
            r"\['sender_count'\]")):
        registry.register(_incast(nightly_grid={"sender_count": (2,)}))


def test_base_knob_pinning_a_grid_knob_registers(registry):
    """A pinned knob is the value off the grid; on the grid the grid
    value wins, so the pair is not a clash."""
    registry.register(_incast(base_knobs={"n_senders": 8}))
    spec = registry.get("probe")
    assert spec.knobs_for({"n_senders": 2}) == {"n_senders": 2}


def test_a_figure_makes_the_grade_lenient():
    """A charted study fails only on errored runs; every other spec
    fails unless every run diagnosed correctly."""
    assert _spec().strict
    figure = FigureSpec(x_axis="skew_ms", x_label="x", title="t")
    assert not _spec(figure=figure).strict
    assert {spec.name for spec in EXPERIMENTS.values()
            if not spec.strict} == {
        "deploy-degradation", "directory-degradation",
        "rpc-latency-degradation", "skew-degradation"}


def test_expected_suspect_follows_the_knobs_then_the_default():
    spec = _spec(expect_suspect_knob="fault_switch")
    default = SCENARIOS.get("gray-failure").spec.knobs["fault_switch"].default
    assert spec.cell(0, {}, {}, 1)[4] == default
    assert spec.cell(0, {}, {"fault_switch": "S1"}, 1)[4] == "S1"
    assert _spec().cell(0, {}, {}, 1)[4] is None


def test_every_study_registers_under_its_name():
    """Each run table registers next to its scenario; the scale sweeps
    run one repetition, the charted studies five."""
    reps = {spec.name: spec.reps for spec in EXPERIMENTS.values()}
    assert reps == {
        "clock-skew": 1, "directory-bits": 1, "gray-failure": 1,
        "incast": 1, "incast-scale": 1, "link-flap": 1, "multi-fault": 1,
        "partial-deployment": 1, "polarization": 1, "rpc-latency": 1,
        "deploy-degradation": 5, "directory-degradation": 5,
        "rpc-latency-degradation": 5, "skew-degradation": 5}


def test_every_registered_experiment_passes_the_check():
    """The import-time catalogue re-validates cleanly (no legacy escape)."""
    for spec in EXPERIMENTS.values():
        EXPERIMENTS.check(spec)


@pytest.mark.parametrize("overrides, named", [
    ({"grid": {"n_senders": (2, 4.5)}}, "'n_senders' of 'incast'"),
    ({"nightly_grid": {"n_senders": ("4",)}}, "'n_senders' of 'incast'"),
    ({"nightly_points": ({"n_senders": True},)}, "'n_senders' of 'incast'"),
    ({"base_knobs": {"hosts": 70.5}}, "'hosts' of 'incast'"),
])
def test_grid_values_obey_the_knob_contract(registry, overrides, named):
    # a value the scenario would refuse fails at registration, not as
    # an errored run in the middle of a nightly table
    with pytest.raises(ExperimentError,
                       match=f"experiment 'probe': knob {named}"):
        registry.register(_incast(**overrides))


@pytest.mark.parametrize("argv, named", [
    (["experiment", "run", "incast", "--grid", "hosts=70.5"],
     "knob 'hosts' of 'incast' takes an int, got 70.5 (float)"),
    (["experiment", "run", "incast", "--knob", "bg_flows=-3"],
     "knob 'bg_flows' of 'incast' must be >= 0, got -3"),
    (["experiment", "run", "skew-degradation", "--grid", "skew_ms=fast"],
     "knob 'skew_ms' of 'gray-failure' takes a float, got 'fast' (str)"),
    (["experiment", "run", "skew-degradation", "--knob", "ghost=1"],
     "unknown knob(s) for 'gray-failure': ['ghost']"),
])
def test_a_bad_cell_exits_2_before_any_run(argv, named, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "table"
    assert main([*argv, "--workers", "1", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert captured.out == ""
    assert not out.exists()
