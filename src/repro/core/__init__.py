"""SwitchPointer's core data structures — the paper's contribution.

* :mod:`repro.core.mphf` — minimal perfect hash over the end-host set.
* :mod:`repro.core.epoch` — epoch clocks, bounded skew, range
  extrapolation.
* :mod:`repro.core.pointer` — pointer sets and the k-level hierarchical
  directory.
* :mod:`repro.core.headers` — the VLAN double-tag telemetry codec.
* :mod:`repro.core.sizing` — the analytic memory/bandwidth/recycling
  models behind Figs 10 and 11.
"""

from .mphf import HostDirectory, MinimalPerfectHash, MphfBuildError
from .epoch import (EpochClock, EpochRange, EpochRangeEstimator,
                    unwrap_epoch)
from .pointer import HierarchicalPointerStore, PointerSet, PointerSnapshot
from .headers import HeaderError, VlanDoubleTag, VLAN_ID_MODULUS
from .sizing import (MPHF_BITS_PER_KEY, mphf_bytes, pointer_set_bits,
                     pointer_sets_total, push_bandwidth_bps,
                     recycling_period_ms, store_memory_bits,
                     total_switch_memory_bytes)

__all__ = [
    "MinimalPerfectHash", "HostDirectory", "MphfBuildError",
    "EpochClock", "EpochRange", "EpochRangeEstimator", "unwrap_epoch",
    "PointerSet", "PointerSnapshot", "HierarchicalPointerStore",
    "VlanDoubleTag", "HeaderError", "VLAN_ID_MODULUS",
    "pointer_set_bits", "pointer_sets_total", "store_memory_bits",
    "mphf_bytes", "total_switch_memory_bytes", "push_bandwidth_bps",
    "recycling_period_ms", "MPHF_BITS_PER_KEY",
]
