"""SwitchPointer switch component: datapath pipeline + control plane.

* :mod:`repro.switchd.datapath` — per-packet pointer updates and
  telemetry embedding (hooks into the simulated switch).
* :mod:`repro.switchd.cherrypick` — link-sampling decisions and
  path reconstruction.
* :mod:`repro.switchd.agent` — pointer reads and the pushed history.
* :mod:`repro.switchd.rules` — OpenFlow rule-count/update model.
"""

from .cherrypick import CherryPickPlanner
from .datapath import (MODE_INT, MODE_NONE, MODE_VLAN,
                       SwitchPointerDatapath, VanillaDatapath)
from .agent import RecycledEpochError, SwitchAgent
from .rules import (COMMODITY_MIN_ALPHA_MS, FlowRule, RuleModelError,
                    RuleTable)

__all__ = [
    "CherryPickPlanner",
    "SwitchPointerDatapath", "VanillaDatapath",
    "MODE_VLAN", "MODE_INT", "MODE_NONE",
    "SwitchAgent", "RecycledEpochError",
    "RuleTable", "FlowRule", "RuleModelError", "COMMODITY_MIN_ALPHA_MS",
]
