"""Fixture stand-ins for the scenario/experiment declaration surface."""

from typing import Any


class Knob:
    def __init__(self, default: Any, help: str) -> None:
        self.default = default
        self.help = help


class ScenarioSpec:
    def __init__(self, **kw: Any) -> None:
        self.kw = kw


class ExperimentSpec:
    def __init__(self, **kw: Any) -> None:
        self.kw = kw


class Scenario:
    p: dict[str, Any] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    return spec
