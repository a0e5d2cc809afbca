"""Composable fault injection — the registry-driven fault layer.

Public surface:

* :class:`Fault` / :class:`FaultSpec` / :class:`FaultParam` /
  :func:`register_fault` / :data:`FAULTS` — the four-verb protocol
  (schedule → inject → heal → describe) and the registry every fault
  module registers into.
* :class:`FaultPlan` — compose N faults with independent schedules in
  one simulation; tracks each through pending → active → healed.
* :class:`FaultContext` — what faults act on (network + deployment).
* Concrete faults: ``link-down``, ``link-flap``, ``silent-drop``,
  ``ecmp-polarization``, ``clock-skew``, ``partial-deployment``,
  ``agent-crash``.

See ``docs/FAULTS.md`` (generated from this registry) for the full
catalogue.
"""

from .base import (
    ACTIVE,
    FAULTS,
    Fault,
    FaultContext,
    FaultError,
    FaultParam,
    FaultSpec,
    HEALED,
    PENDING,
    register_fault,
)
from .catalog import faults_markdown
from .clock import ClockSkewFault, skew_for
from .crash import AgentCrashFault
from .deploy import PartialDeploymentFault, parse_spare
from .drop import SilentDropFault
from .ecmp import EcmpPolarizationFault, port_blind_hash
from .link import LinkDownFault, LinkFlapFault
from .plan import FaultPlan

__all__ = [
    "ACTIVE",
    "FAULTS",
    "HEALED",
    "PENDING",
    "AgentCrashFault",
    "ClockSkewFault",
    "EcmpPolarizationFault",
    "Fault",
    "FaultContext",
    "FaultError",
    "FaultParam",
    "FaultPlan",
    "FaultSpec",
    "LinkDownFault",
    "LinkFlapFault",
    "PartialDeploymentFault",
    "SilentDropFault",
    "faults_markdown",
    "parse_spare",
    "port_blind_hash",
    "register_fault",
    "skew_for",
]
