"""End-host event triggers (§4.2.2, §5.1).

The paper instruments hosts with "a simple trigger that detects drastic
throughput changes: it measures throughput every 1 ms and generates an
alert to the analyzer if throughput drop is more than 50%".  The alert
carries ``<switchID, list of epochIDs, byte counts per epoch>`` tuples
assembled from the victim's flow record.

:class:`ThroughputDropTrigger` reproduces that heuristic with a
simulator-driven 1 ms evaluation timer (packet-driven evaluation alone
would sleep through total starvation — precisely the event we must
catch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.epoch import EpochRange
from ..simnet.engine import PeriodicTimer, Simulator
from ..simnet.packet import FlowKey, Packet
from .records import FlowRecord, FlowRecordStore


@dataclass
class SwitchEpochTuple:
    """One per-switch entry of an alert (§5.1's alert payload)."""

    switch: str
    epochs: EpochRange
    bytes_by_epoch: dict[int, int] = field(default_factory=dict)


@dataclass
class VictimAlert:
    """What a host sends the analyzer when a trigger fires."""

    flow: FlowKey
    host: str
    time: float
    kind: str                      # "throughput-drop"
    drop_ratio: float = 0.0
    rate_before_gbps: float = 0.0
    rate_after_gbps: float = 0.0
    tuples: list[SwitchEpochTuple] = field(default_factory=list)

    @property
    def switch_path(self) -> list[str]:
        return [t.switch for t in self.tuples]


def alert_tuples_from_record(rec: FlowRecord,
                             restrict: Optional[EpochRange] = None
                             ) -> list[SwitchEpochTuple]:
    """Assemble the alert payload from a victim's flow record.

    ``restrict`` narrows each per-switch range to the epochs around the
    triggering event (the paper's alert reports "when and where packets
    of the TCP flow visit" — the *when* is the drop window, not the
    flow's whole lifetime).  A switch whose recorded range misses the
    restriction entirely keeps its recorded range: conservative, never
    empty.
    """
    out = []
    for sw in rec.switch_path:
        rng = rec.epochs_at(sw)
        if rng is None:
            continue
        if restrict is not None and rng.intersects(restrict):
            rng = EpochRange(max(rng.lo, restrict.lo),
                             min(rng.hi, restrict.hi))
        out.append(SwitchEpochTuple(switch=sw, epochs=rng,
                                    bytes_by_epoch=dict(rec.bytes_by_epoch)))
    return out


AlertSink = Callable[[VictimAlert], None]


class ThroughputDropTrigger:
    """Per-flow 1 ms throughput watchdog.

    Fires when the last completed window's rate fell below
    ``(1 − drop_threshold)`` of the reference rate (the max over the
    recent past, so a gradual multi-window collapse still triggers
    once), provided the flow was running above ``floor_gbps`` first.
    A refractory period avoids alert storms for one event.
    """

    def __init__(self, sim: Simulator, flow: FlowKey, host_name: str,
                 store: FlowRecordStore, sink: AlertSink, *,
                 window: float = 0.001, drop_threshold: float = 0.5,
                 floor_gbps: float = 0.05, refractory: float = 0.005,
                 clock=None, slack_epochs: int = 1,
                 lookback_windows: int = 2):
        if not 0 < drop_threshold < 1:
            raise ValueError("drop_threshold must be in (0, 1)")
        self.sim = sim
        self.flow = flow
        self.host_name = host_name
        self.store = store
        self.sink = sink
        self.window = window
        self.drop_threshold = drop_threshold
        self.floor_gbps = floor_gbps
        self.refractory = refractory
        #: Optional host EpochClock: when present, alert epoch ranges are
        #: restricted to the drop window ± slack instead of the flow's
        #: whole recorded history.
        self.clock = clock
        self.slack_epochs = slack_epochs
        self.lookback_windows = lookback_windows
        self.alerts_fired = 0
        self.last_fired: Optional[float] = None
        self._window_bytes = 0
        self._reference_gbps = 0.0
        self._timer = PeriodicTimer(sim, window, self._close_window)

    def on_packet(self, pkt: Packet, now: float) -> None:
        """Wire to the receiver's payload callback."""
        if pkt.flow == self.flow:
            self._window_bytes += pkt.size

    def stop(self) -> None:
        self._timer.stop()

    # -- evaluation -----------------------------------------------------------

    def _close_window(self) -> None:
        rate = self._window_bytes * 8 / self.window / 1e9
        self._window_bytes = 0
        ref = self._reference_gbps
        if (ref > self.floor_gbps
                and rate < ref * (1 - self.drop_threshold)
                and self._out_of_refractory()):
            self._fire(ref, rate)
        # Reference tracks the running rate but decays after a collapse so
        # a recovered-then-degraded flow can trigger again.
        self._reference_gbps = max(rate, ref * 0.5)

    def _out_of_refractory(self) -> bool:
        return (self.last_fired is None
                or self.sim.now - self.last_fired >= self.refractory)

    def _fire(self, ref: float, rate: float) -> None:
        self.alerts_fired += 1
        self.last_fired = self.sim.now
        rec = self.store.get(self.flow)
        restrict = None
        if self.clock is not None:
            onset = self.sim.now - self.lookback_windows * self.window
            restrict = EpochRange(
                self.clock.epoch_of(max(0.0, onset)) - self.slack_epochs,
                self.clock.epoch_of(self.sim.now) + self.slack_epochs)
        tuples = alert_tuples_from_record(rec, restrict) if rec else []
        self.sink(VictimAlert(
            flow=self.flow, host=self.host_name, time=self.sim.now,
            kind="throughput-drop",
            drop_ratio=1 - (rate / ref if ref > 0 else 0.0),
            rate_before_gbps=ref, rate_after_gbps=rate, tuples=tuples))
