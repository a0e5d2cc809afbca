"""Reusable failure scenarios — paper figures and extended faults.

Each scenario is a registered plugin implementing the four-phase
protocol of :class:`repro.scenarios.base.Scenario` (build → run →
collect → diagnose).  The :data:`REGISTRY` is what ``repro.cli``'s
``list``/``run`` commands and the generated ``docs/SCENARIOS.md``
catalogue are driven from: registering a new scenario class is all it
takes to appear in both.

Scenario ↔ figure/fault map
---------------------------
=====================  =========================================
``contention``         Fig 2(a)/Fig 7 (aliases ``fig2a``, ``fig7``)
``microburst``         Fig 2(b) (alias ``fig2b``)
``red-lights``         Fig 3, §5.2 (alias ``fig3``)
``cascades``           Fig 4, §5.3 (alias ``fig4``)
``load-imbalance``     Fig 8, §5.4 (alias ``fig8``)
``incast``             N-to-1 synchronized fan-in collapse
``gray-failure``       silent per-flow drops (alias ``silent-drop``)
``polarization``       ECMP hash polarization (alias
                       ``ecmp-polarization``)
``link-flap``          periodic link churn driving reroutes
=====================  =========================================

:func:`run_scenario` (name or alias plus knobs) is the one way in: the
CLI, sweeps, experiments, examples, tests and the benchmark harness all
call it, so the numbers in the benchmark results come from the same
code the test suite validates.  A caller that wants the run's probes,
victim flows or other state reads them from the executed scenario,
``ScenarioResult.scenario``.
"""

from __future__ import annotations

from .base import (REGISTRY, Knob, Scenario, ScenarioError,
                   ScenarioResult, ScenarioSpec, SwitchStats, register,
                   run_scenario)
from .common import DEEP_BUFFER_BYTES, GBPS
from .contention import ContentionScenario, MicroburstScenario
from .red_lights import RedLightsScenario, build_red_lights_network
from .cascades import CascadesScenario, build_cascades_network
from .load_imbalance import (LoadImbalanceScenario,
                             build_load_imbalance_network)
from .incast import IncastScenario
from .gray_failure import GrayFailureScenario
from .polarization import PolarizationScenario
from .link_flap import LinkFlapScenario
from .multi_fault import MultiFaultScenario
from .catalog import catalog_markdown

__all__ = [
    # registry / protocol
    "REGISTRY", "register", "run_scenario", "Scenario", "ScenarioError",
    "ScenarioResult", "ScenarioSpec", "SwitchStats",
    "Knob", "catalog_markdown",
    # shared constants
    "DEEP_BUFFER_BYTES", "GBPS",
    # paper scenarios (classes, topology builders)
    "ContentionScenario", "MicroburstScenario",
    "RedLightsScenario", "build_red_lights_network",
    "CascadesScenario", "build_cascades_network",
    "LoadImbalanceScenario", "build_load_imbalance_network",
    # extended fault scenarios
    "IncastScenario", "GrayFailureScenario", "PolarizationScenario",
    "LinkFlapScenario", "MultiFaultScenario",
]
