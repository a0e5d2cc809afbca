"""Measurement probes.

These reproduce the *instrumentation* used in the paper's plots:

* :class:`ThroughputProbe` — per-window byte counts of one flow,
  convertible to a Gbps time series (Figs 2, 3, 4 y-axes).  The paper's
  end-host trigger measures throughput in 1 ms windows, so that is the
  default.
* :class:`InterArrivalProbe` — packet inter-arrival gaps of one flow
  (right-hand panels of Fig 2).
* :func:`attach_flow_tap` — observe one flow's packets as they leave a
  specific switch interface (Fig 3 plots the *same* flow's throughput at
  S1 and at S2).
"""

from __future__ import annotations

from typing import Optional

from .link import Interface
from .packet import FlowKey, Packet


class ThroughputProbe:
    """Windowed byte counter for one flow.

    ``observe(nbytes, t)`` may be wired to a receiver callback or a
    switch tx tap.  ``series()`` returns ``[(window_start_s, gbps)]``
    covering every window from ``t0`` to the last observation (empty
    windows included, reported as 0.0 — starvation must be visible).
    """

    def __init__(self, window: float = 0.001, t0: float = 0.0):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.t0 = t0
        self._bins: dict[int, int] = {}
        self.total_bytes = 0
        self.last_t: Optional[float] = None

    def observe(self, nbytes: int, t: float) -> None:
        idx = int((t - self.t0) / self.window)
        self._bins[idx] = self._bins.get(idx, 0) + nbytes
        self.total_bytes += nbytes
        self.last_t = t if self.last_t is None else max(self.last_t, t)

    def on_packet(self, pkt: Packet, t: float) -> None:
        """Adapter matching socket/tap callback signatures."""
        self.observe(pkt.size, t)

    def series(self, until: Optional[float] = None) -> list[tuple[float, float]]:
        """Gbps per window, zero-filled, from t0 through the last sample."""
        if not self._bins and until is None:
            return []
        last_idx = max(self._bins) if self._bins else 0
        if until is not None:
            last_idx = max(last_idx, int((until - self.t0) / self.window) - 1)
        out = []
        for idx in range(0, last_idx + 1):
            gbps = self._bins.get(idx, 0) * 8 / self.window / 1e9
            out.append((self.t0 + idx * self.window, gbps))
        return out

    def rate_at(self, t: float) -> float:
        """Gbps of the window containing ``t``."""
        idx = int((t - self.t0) / self.window)
        return self._bins.get(idx, 0) * 8 / self.window / 1e9


class InterArrivalProbe:
    """Records gaps between consecutive packets of one flow."""

    def __init__(self) -> None:
        self._last: Optional[float] = None
        self.samples: list[tuple[float, float]] = []  # (t, gap seconds)

    def on_packet(self, pkt: Packet, t: float) -> None:
        if self._last is not None:
            self.samples.append((t, t - self._last))
        self._last = t

    def max_gap_in(self, t_lo: float, t_hi: float) -> float:
        return max((g for t, g in self.samples if t_lo <= t <= t_hi),
                   default=0.0)


def attach_flow_tap(iface: Interface, flow: FlowKey,
                    probe: ThroughputProbe) -> None:
    """Feed ``probe`` with ``flow``'s packets serialized out of ``iface``."""

    def tap(pkt: Packet, t: float) -> None:
        if pkt.flow == flow:
            probe.observe(pkt.size, t)

    iface.tx_taps += (tap,)

