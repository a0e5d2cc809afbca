"""SwitchPointer switch component: datapath pipeline + control plane.

* :mod:`repro.switchd.datapath` — per-packet pointer updates and
  telemetry embedding (hooks into the simulated switch).
* :mod:`repro.switchd.cherrypick` — link-sampling decisions and
  path reconstruction.
* :mod:`repro.switchd.agent` — pointer reads and the pushed history.
"""

from .cherrypick import CherryPickPlanner
from .datapath import (MODE_INT, MODE_NONE, MODE_VLAN,
                       SwitchPointerDatapath, VanillaDatapath)
from .agent import RecycledEpochError, SwitchAgent

__all__ = [
    "CherryPickPlanner",
    "SwitchPointerDatapath", "VanillaDatapath",
    "MODE_VLAN", "MODE_INT", "MODE_NONE",
    "SwitchAgent", "RecycledEpochError",
]
