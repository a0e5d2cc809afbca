"""Fixture: every knob access and experiment grid knob is declared,
including knobs merged in through the shared-helper idiom."""

from typing import Any

from .base import ExperimentSpec, Knob, Scenario, ScenarioSpec, register_experiment


def shared_knobs() -> dict[str, Knob]:
    return {
        "warmup": Knob(0.0, "warmup length (s)"),
    }


class FxScenario(Scenario):
    spec = ScenarioSpec(
        name="fx",
        knobs={
            "flows": Knob(4, "flow count"),
            "duration": Knob(0.1, "run length (s)"),
            **shared_knobs(),
        },
        smoke_knobs={"flows": 2},
    )

    def build(self) -> None:
        self.p["flows"]

    def execute(self) -> Any:
        p = self.p
        return p["duration"], p.get("warmup")


register_experiment(
    ExperimentSpec(
        name="fx-sweep",
        scenario="fx",
        grid={"flows": (2, 4)},
        nightly_grid={"warmup": (0.0,)},
        nightly_points=({"flows": 8, "duration": 0.3},),
        base_knobs={"duration": 0.2},
        expect_suspect_knob="flows",
    )
)
