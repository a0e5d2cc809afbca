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

The ``run_*_scenario`` functions remain as thin functional entry points
over the classes; examples, tests, and the benchmark harness share
them, guaranteeing the numbers in the benchmark results come from the
same code the test suite validates.
"""

from __future__ import annotations

from .base import (REGISTRY, Knob, Scenario, ScenarioError,
                   ScenarioResult, ScenarioSpec, SwitchStats, register,
                   run_scenario)
from .common import DEEP_BUFFER_BYTES, GBPS
from .contention import (ContentionResult, ContentionScenario,
                         MicroburstScenario, run_contention_scenario)
from .red_lights import (RedLightsResult, RedLightsScenario,
                         build_red_lights_network,
                         run_red_lights_scenario)
from .cascades import (CascadesResult, CascadesScenario,
                       build_cascades_network, run_cascades_scenario)
from .load_imbalance import (LoadImbalanceResult, LoadImbalanceScenario,
                             build_load_imbalance_network,
                             run_load_imbalance_scenario)
from .incast import IncastResult, IncastScenario
from .gray_failure import GrayFailureResult, GrayFailureScenario
from .polarization import PolarizationResult, PolarizationScenario
from .link_flap import LinkFlapResult, LinkFlapScenario
from .multi_fault import MultiFaultScenario
from .catalog import catalog_markdown

__all__ = [
    # registry / protocol
    "REGISTRY", "register", "run_scenario", "Scenario", "ScenarioError",
    "ScenarioResult", "ScenarioSpec", "SwitchStats",
    "Knob", "catalog_markdown",
    # shared constants
    "DEEP_BUFFER_BYTES", "GBPS",
    # paper scenarios (classes + legacy functional entry points)
    "ContentionScenario", "MicroburstScenario", "ContentionResult",
    "run_contention_scenario",
    "RedLightsScenario", "RedLightsResult", "build_red_lights_network",
    "run_red_lights_scenario",
    "CascadesScenario", "CascadesResult", "build_cascades_network",
    "run_cascades_scenario",
    "LoadImbalanceScenario", "LoadImbalanceResult",
    "build_load_imbalance_network", "run_load_imbalance_scenario",
    # extended fault scenarios
    "IncastScenario", "IncastResult",
    "GrayFailureScenario", "GrayFailureResult",
    "PolarizationScenario", "PolarizationResult",
    "LinkFlapScenario", "LinkFlapResult",
    "MultiFaultScenario",
]
