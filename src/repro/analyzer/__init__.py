"""SwitchPointer analyzer: coordination + debugging applications (§4.3, §5)."""

from .analyzer import Analyzer, HostsPerSwitch
from .apps import (Culprit, Verdict, diagnose_cascade, diagnose_contention,
                   diagnose_gray_failure, diagnose_gray_failure_online,
                   diagnose_incast, diagnose_link_flap,
                   diagnose_load_imbalance, diagnose_polarization,
                   diagnose_red_lights)
from .netdebug import (ConformanceReport, ConformanceViolation,
                       DropLocalization, check_path_conformance,
                       localize_packet_drops)
from .session import (DiagnosisSession, STATUS_COMPLETE, STATUS_DEGRADED,
                      STATUS_STALE, VERDICT_STATES)

__all__ = [
    "Analyzer", "HostsPerSwitch",
    "Verdict", "Culprit",
    "diagnose_contention", "diagnose_red_lights", "diagnose_cascade",
    "diagnose_load_imbalance", "diagnose_incast", "diagnose_gray_failure",
    "diagnose_gray_failure_online",
    "diagnose_polarization", "diagnose_link_flap",
    "DiagnosisSession", "VERDICT_STATES",
    "STATUS_COMPLETE", "STATUS_DEGRADED", "STATUS_STALE",
    "DropLocalization", "localize_packet_drops",
    "ConformanceReport", "ConformanceViolation",
    "check_path_conformance",
]
