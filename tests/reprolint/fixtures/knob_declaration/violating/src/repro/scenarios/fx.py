"""Fixture: undeclared knob use plus an experiment over ghost knobs."""

from typing import Any

from .base import ExperimentSpec, Knob, Scenario, ScenarioSpec, register_experiment


class FxScenario(Scenario):
    spec = ScenarioSpec(
        name="fx",
        knobs={
            "flows": Knob(4, "flow count"),
            "duration": Knob(0.1, "run length (s)"),
        },
        smoke_knobs={"rate": 1},
    )

    def build(self) -> None:
        self.p["flows"]

    def execute(self) -> Any:
        p = self.p
        return p["burst_len"], p.get("warmup")


register_experiment(
    ExperimentSpec(
        name="fx-sweep",
        scenario="fx",
        grid={"ghost_grid": (1, 2), "flows": (2,)},
        nightly_grid={"ghost_nightly": (1,)},
        nightly_points=({"flows": 8, "ghost_point": 3},),
        base_knobs={"phantom": 9},
        expect_suspect_knob="missing",
    )
)
