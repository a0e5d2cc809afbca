"""A knob's type is its default's type.

An int knob takes an int (not a bool), a float knob an int or a float,
a bool knob only a bool and a str knob only a str.  A mismatch is a
``ScenarioError`` naming the knob, the scenario, the expected type and
the value; the CLI exits 2 with it.  Every value a registry or the perf
ledger sets must already obey the rule.
"""

import pytest

from benchmarks.ledger.workloads import WORKLOADS, make_workload
from repro.cli import main
from repro.experiment import EXPERIMENTS
from repro.scenarios import REGISTRY
from repro.scenarios.base import Knob, knob_type_error
from repro.sweep import SWEEPS


@pytest.mark.parametrize("scenario, knob, want", [
    ("incast", "hosts=70.5", "takes an int, got 70.5 (float)"),
    ("contention", "m_flows=2.5", "takes an int, got 2.5 (float)"),
    ("contention", "watch=3", "takes a bool, got 3 (int)"),
])
def test_cli_names_the_knob_its_type_and_the_value(scenario, knob, want,
                                                   capsys):
    # hosts=70.5 and m_flows=2.5 died far from the knob with "'float'
    # object cannot be interpreted as an integer"; watch=3 ran
    assert main(["run", scenario, "--knob", knob]) == 2
    captured = capsys.readouterr()
    name = knob.partition("=")[0]
    assert captured.err == f"error: knob {name!r} of {scenario!r} {want}\n"
    assert captured.out == ""


@pytest.mark.parametrize("default, fits, misfits", [
    (3, [0, -2, 10**9], [1.0, 64.0, 2.5, True, "3"]),
    (0.5, [1, 0.25, float("inf")], [False, "0.5"]),
    (True, [False, True], [0, 1, "true"]),
    ("S2", ["", "h1_0"], [2, 2.0, True]),
])
def test_the_rule(default, fits, misfits):
    knob = Knob(default, "probe")
    assert [knob_type_error(knob, v) for v in fits] == [None] * len(fits)
    assert all(knob_type_error(knob, v) for v in misfits)


def registered_values():
    """(where, scenario, knob, value) for every knob value a registry
    or the perf ledger sets."""
    for cls in REGISTRY.values():
        spec = cls.spec
        for knob, value in spec.smoke_knobs.items():
            yield f"{spec.name} smoke", spec.name, knob, value
    for sweep in SWEEPS.values():
        where = f"sweep {sweep.name}"
        for knob, value in sweep.base_knobs.items():
            yield where, sweep.scenario, knob, value
        for grid in (sweep.default_grid, sweep.nightly_grid,
                     *sweep.nightly_points):
            for axis, values in grid.items():
                values = values if isinstance(values, tuple) else (values,)
                for value in values:
                    yield where, sweep.scenario, sweep.axes[axis], value
    for exp in EXPERIMENTS.values():
        sweep = SWEEPS.get(exp.sweep)
        where = f"experiment {exp.name}"
        for knob, value in exp.base_knobs.items():
            yield where, sweep.scenario, knob, value
        for axis, values in exp.axes.items():
            for value in values:
                yield where, sweep.scenario, sweep.axes[axis], value
    for name in WORKLOADS:
        for toy in (False, True):
            workload = make_workload(name, toy=toy)
            members = getattr(workload, "members", None) or [
                ("incast", workload.knobs)]
            for scenario, knobs in members:
                for knob, value in knobs.items():
                    yield f"ledger {name}", scenario, knob, value


def test_every_registered_value_obeys_the_rule():
    seen = 0
    for where, scenario, name, value in registered_values():
        knob = REGISTRY.get(scenario).spec.knobs[name]
        assert knob_type_error(knob, value) is None, (where, name, value)
        seen += 1
    assert seen > 100
