"""SwitchPointer switch component: datapath pipeline + control plane.

* :mod:`repro.switchd.datapath` — per-packet pointer updates and
  the VLAN double tag (hooks into the simulated switch).
* :mod:`repro.switchd.cherrypick` — link-sampling decisions and
  path reconstruction.
* :mod:`repro.switchd.agent` — pointer reads and the pushed history.
"""

from .cherrypick import CherryPickPlanner
from .datapath import SwitchPointerDatapath
from .agent import RecycledEpochError, SwitchAgent

__all__ = [
    "CherryPickPlanner",
    "SwitchPointerDatapath",
    "SwitchAgent", "RecycledEpochError",
]
