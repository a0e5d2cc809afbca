"""Clock-skew fault: spread per-device epoch offsets across the fleet.

The paper's asynchrony model (§4.2.1) only assumes pairwise clock skew
bounded by ε.  This fault *stresses* that assumption: every targeted
device's :class:`~repro.core.epoch.EpochClock` gets a deterministic
offset in ``[-skew_ms, +skew_ms]`` (so pairwise skew reaches
``2·skew_ms``), applied through the live ``set_skew`` hook — pointer
stores, decoders, and triggers all see the shifted epoch numbering
immediately.  Within ε the epoch-range extrapolation absorbs it;
beyond ε, diagnosis accuracy is allowed to degrade, and the sweep
``skew_ms=`` axis measures by how much.
"""

from __future__ import annotations

import zlib
from typing import Any

from .base import Fault, FaultContext, FaultError, FaultParam, FaultSpec, register_fault

_TARGETS = ("hosts", "switches", "all")


def skew_for(name: str, skew_ms: float) -> float:
    """Deterministic per-device offset in seconds, from the name alone.

    CRC32 of the device name mapped to ``[-skew_ms, +skew_ms]`` — stable
    across runs and processes, so a sweep point's skew assignment is
    reproducible from its knobs with no extra recorded state.
    """
    u = zlib.crc32(name.encode()) / 0xFFFFFFFF
    return (2.0 * u - 1.0) * skew_ms / 1e3


@register_fault
class ClockSkewFault(Fault):
    """Offset every targeted device clock by a name-derived amount."""

    spec = FaultSpec(
        name="clock-skew",
        summary="per-device epoch-clock offsets up to ±skew_ms "
        "(stresses the ε-bounded asynchrony assumption)",
        degrades="time correlation: epoch numbering shifts per device, "
        "misaligning pointers, records, and silence windows",
        diagnosed_by="(none — a stressor; sweeps measure accuracy vs skew)",
        params={
            "skew_ms": FaultParam(0.0, "max |offset| per device (ms)"),
            "targets": FaultParam("all", "which clocks: hosts, switches, or all"),
        },
    )

    def __init__(self, **params: Any):
        super().__init__(**params)
        if self.p["targets"] not in _TARGETS:
            raise FaultError(
                f"clock-skew: targets must be one of {_TARGETS}, "
                f"got {self.p['targets']!r}"
            )
        #: (switch clock object, delta applied) pairs.  Heal *subtracts*
        #: the delta instead of restoring an absolute offset, so
        #: overlapping skew faults unwind correctly in any heal order;
        #: the clock object is held directly because a concurrent
        #: partial-deployment fault may remove the switch from the
        #: deployment's membership between inject and heal.  Hosts never
        #: leave it, and are shifted by name: a host with no agent yet
        #: keeps its shift until its clock is built
        self._applied: list = []

    def _shift_hosts(self, ctx: FaultContext, sign: float) -> None:
        if self.p["targets"] in ("hosts", "all"):
            deploy, skew_ms = ctx.require_deployment(self), self.p["skew_ms"]
            for name in deploy.host_agents:
                deploy.shift_host_skew(name, sign * skew_for(name, skew_ms))

    def inject(self, ctx: FaultContext) -> None:
        deploy, skew_ms = ctx.require_deployment(self), self.p["skew_ms"]
        if self.p["targets"] in ("switches", "all"):
            for name, dp in deploy.datapaths.items():
                delta = skew_for(name, skew_ms)
                self._applied.append((dp.clock, delta))
                dp.clock.set_skew(dp.clock.skew_s + delta)
        self._shift_hosts(ctx, 1.0)

    def heal(self, ctx: FaultContext) -> None:
        for clock, delta in self._applied:
            clock.set_skew(clock.skew_s - delta)
        self._applied.clear()
        self._shift_hosts(ctx, -1.0)
