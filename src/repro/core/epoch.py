"""Epoch arithmetic, bounded clock skew, and epoch-range extrapolation.

SwitchPointer switches divide *their local view of time* into epochs of
α ms (§3).  Clocks are not synchronized; the design only assumes the
skew between any two devices is bounded by ε (§4.2.1).  The destination
host observes a single epochID e_i (from the one switch that embedded
it) and must derive, for every other switch on the path, a *range* of
epochs that certainly contains the packet's true epoch there:

* upstream switch, j hops before the embedding switch:
  ``[e_i − (ε + j·Δ)/α,  e_i + ε/α]``
* downstream switch, j hops after:
  ``[e_i − ε/α,  e_i + (ε + j·Δ)/α]``

with Δ the maximum one-hop delay.  Fractions are rounded outward
(ceiling) so the range always covers the truth.

The widening depends only on the path's length and the embedder's
position on it, so :meth:`EpochRangeEstimator.offsets` derives it once
per such shape, as one shared tuple of per-position ``(lo, hi)``
offsets.  A host's flow record keeps that tuple and the span of epochs
it observed, and derives every switch's range from the two
(``hostd/records.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class EpochClock:
    """A device's local epoch counter.

    Parameters
    ----------
    alpha_ms:
        Epoch duration α in milliseconds.
    skew_s:
        This device's constant clock offset from true simulated time, in
        seconds.  The asynchrony model of §4.2.1 only requires that
        ``|skew_a − skew_b| ≤ ε`` for every device pair.
    """

    __slots__ = ("alpha_ms", "skew_s")

    def __init__(self, alpha_ms: float, skew_s: float = 0.0):
        if not math.isfinite(alpha_ms):
            raise ValueError(
                f"epoch duration must be finite, got {alpha_ms!r}")
        if alpha_ms <= 0:
            raise ValueError("epoch duration must be positive")
        self.alpha_ms = alpha_ms
        self.set_skew(skew_s)

    def set_skew(self, skew_s: float) -> None:
        """Re-offset this clock at runtime (the clock-skew fault hook).

        Every consumer holding the clock — pointer store rotation,
        telemetry decoder, triggers — sees the new offset on its next
        ``epoch_of``/``epoch_start`` call; nothing is cached.
        """
        if not math.isfinite(skew_s):
            raise ValueError(f"skew must be finite, got {skew_s!r}")
        self.skew_s = skew_s

    @property
    def alpha_s(self) -> float:
        return self.alpha_ms / 1000.0

    def epoch_of(self, true_time_s: float) -> int:
        """EpochID at true simulated time ``true_time_s``.

        A tiny guard absorbs float error at exact epoch boundaries
        (``epoch_start(e)`` must map back to ``e``).
        """
        # local time over α in seconds, spelled out: every forwarded
        # packet and every decoded one reads its epoch here
        return math.floor((true_time_s + self.skew_s)
                          / (self.alpha_ms / 1000.0) + 1e-9)

    def epoch_start(self, epoch: int) -> float:
        """True time when this device's ``epoch`` begins."""
        return epoch * self.alpha_s - self.skew_s


@dataclass(frozen=True, slots=True)
class EpochRange:
    """Closed integer range of epochIDs ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty epoch range [{self.lo}, {self.hi}]")

    def __contains__(self, epoch: int) -> bool:
        return self.lo <= epoch <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def intersects(self, other: "EpochRange") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


class EpochRangeEstimator:
    """Implements the §4.2.1 per-switch epoch-range extrapolation.

    Parameters
    ----------
    alpha_ms:
        Epoch duration α.
    epsilon_ms:
        Bound ε on pairwise clock skew.  Paper example: ε = α.
    delta_ms:
        Bound Δ on one-hop delay (queueing + transmission + propagation).
        Paper example: Δ = 2α; it cites 14 ms max queueing from DCTCP as
        justification that Δ stays within tens of milliseconds.
    """

    def __init__(self, alpha_ms: float, epsilon_ms: float, delta_ms: float):
        if alpha_ms <= 0:
            raise ValueError("alpha must be positive")
        if epsilon_ms < 0 or delta_ms < 0:
            raise ValueError("epsilon and delta cannot be negative")
        self.alpha_ms = alpha_ms
        self.epsilon_ms = epsilon_ms
        self.delta_ms = delta_ms
        #: (path length, embed index) -> per-position (lo, hi) offsets
        self._offsets: dict[tuple[int, int],
                            tuple[tuple[int, int], ...]] = {}

    def _eps_epochs(self) -> int:
        return math.ceil(self.epsilon_ms / self.alpha_ms)

    def span_epochs(self, j: int) -> int:
        """(ε + j·Δ)/α rounded up — the widening for a j-hop offset."""
        return math.ceil((self.epsilon_ms + j * self.delta_ms)
                         / self.alpha_ms)

    def range_for(self, observed_epoch: int, hop_delta: int) -> EpochRange:
        """Epoch range at a switch ``hop_delta`` hops from the embedder.

        ``hop_delta < 0``: upstream (traversed *before* the embedding
        switch); ``hop_delta > 0``: downstream; ``0``: the embedder
        itself, still widened by ±ε/α = the skew allowance.
        """
        eps = self._eps_epochs()
        if hop_delta == 0:
            return EpochRange(observed_epoch - eps, observed_epoch + eps)
        j = abs(hop_delta)
        span = self.span_epochs(j)
        if hop_delta < 0:
            return EpochRange(observed_epoch - span, observed_epoch + eps)
        return EpochRange(observed_epoch - eps, observed_epoch + span)

    def offsets(self, path_len: int,
                embed_index: int) -> tuple[tuple[int, int], ...]:
        """Per-position ``(lo, hi)`` widening of the observed epoch.

        ``embed_index`` is the position, on a path of ``path_len``
        switches, of the switch whose epochID the packet carried; the
        range at position ``pos`` is ``observed + offsets[pos]``.  The
        widening depends only on the two positions, so it is derived
        once per (path length, embed index), and every caller asking
        for the same shape gets the same tuple.
        """
        shape = (path_len, embed_index)
        offsets = self._offsets.get(shape)
        if offsets is None:
            if not 0 <= embed_index < path_len:
                raise ValueError("embed_index outside the path")
            spans = (self.range_for(0, pos - embed_index)
                     for pos in range(path_len))
            offsets = self._offsets[shape] = tuple(
                (rng.lo, rng.hi) for rng in spans)
        return offsets


def unwrap_epoch(tag_epoch: int, reference_epoch: int,
                 modulus: int = 1 << 12) -> int:
    """Recover an absolute epochID from one carried modulo ``modulus``.

    VLAN tags have 12 bits (§4.1.3), so the wire carries
    ``epoch mod 4096``.  The decoder picks the absolute epoch congruent
    to the tag that lies nearest ``reference_epoch`` (the receiving
    host's own epoch estimate) — valid as long as end-to-end delay plus
    skew stays under half the wrap period, which at α = 10 ms is ~20 s.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    base = reference_epoch - (reference_epoch % modulus) + (
        tag_epoch % modulus)
    candidates = (base - modulus, base, base + modulus)
    return min(candidates, key=lambda e: abs(e - reference_epoch))
