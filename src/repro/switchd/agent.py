"""Switch control-plane agent (§4.1, §4.3 switch side).

One agent runs per switch.  It owns:

* the **read API** the analyzer uses: pointer sets covering epochs
  [lo, hi], from the finest level of the live hierarchical store that
  still holds the whole window, else from the pushed history (§4.1.1);
* the **push sink**: top-level pointer sets the dataplane hands over
  every αᵏ ms are appended to a persistent history (the control-plane
  storage used for offline diagnosis), with byte accounting.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..core.pointer import HierarchicalPointerStore, PointerSnapshot


class RecycledEpochError(LookupError):
    """A level has reused a set that held part of the asked window.

    The data existed and is gone at that level; answering "no hosts"
    would silently drop them, so a fixed-level read raises instead.
    """


def covering_snapshots(snaps: list[PointerSnapshot], los: list[int],
                       epoch_lo: int, epoch_hi: int) -> list[PointerSnapshot]:
    """Pushed snapshots overlapping ``[epoch_lo, epoch_hi]``, by bisect.

    ``los`` is the parallel sorted list of each snapshot's ``epoch_lo``
    (pushes arrive in window order, so maintaining it is an append).
    Every pushed set sits at the same level and therefore covers the
    same span, which turns the interval-overlap test into one
    contiguous slice — the inverted-index idiom from the query index,
    replacing the old linear scan over the whole push history.
    """
    if not snaps or epoch_hi < los[0]:
        return []
    span = snaps[0].epochs_covered
    start = bisect_left(los, epoch_lo - span + 1)
    stop = bisect_right(los, epoch_hi)
    return snaps[start:stop]


class SwitchAgent:
    """Control-plane side of one SwitchPointer switch."""

    def __init__(self, name: str, store: HierarchicalPointerStore):
        self.name = name
        self.store = store
        self.pushed_history: list[PointerSnapshot] = []
        #: parallel sorted epoch_lo index over pushed_history (bisect)
        self._pushed_lo: list[int] = []
        self.bytes_pushed = 0
        self.pull_requests = 0
        store.on_push = self._on_push

    # -- push model -----------------------------------------------------------

    def _on_push(self, snap: PointerSnapshot) -> None:
        """Append a push, preserving the sorted ``epoch_lo`` index."""
        snaps, los, lo = self.pushed_history, self._pushed_lo, snap.epoch_lo
        if los and lo < los[-1]:
            idx = bisect_right(los, lo)
            snaps.insert(idx, snap)
            los.insert(idx, lo)
        else:
            snaps.append(snap)
            los.append(lo)
        # sketch backends push their (smaller) serialized payload; the
        # measurement-only truth shadow never crosses this link
        self.bytes_pushed += len(snap.bits)

    # -- read API (what the analyzer RPCs) -----------------------------------

    def _read(self, level: int, epoch_lo: int,
              epoch_hi: int) -> list[PointerSnapshot]:
        """Live sets at ``level`` covering the window, whole or not at all.

        Epochs that were never written answer "no hosts", which is
        correct at any level; an epoch whose set was reused raises
        :class:`RecycledEpochError`.
        """
        store = self.store
        for epoch in range(epoch_lo, epoch_hi + 1):
            if store.epoch_status(level, epoch) == "recycled":
                raise RecycledEpochError(
                    f"{self.name}: level {level} recycled epoch {epoch}")
        return store.snapshots_covering(level, epoch_lo, epoch_hi)

    def pull(self, level: int, epoch_lo: int,
             epoch_hi: int) -> list[PointerSnapshot]:
        """Live pointer sets at ``level`` intersecting the epoch range.

        Raises :class:`RecycledEpochError` when ``level`` has reused any
        epoch of the window.
        """
        self.pull_requests += 1
        return self._read(level, epoch_lo, epoch_hi)

    def best_effort_snapshots(
            self, epoch_lo: int,
            epoch_hi: int) -> tuple[list[PointerSnapshot], str]:
        """Answer from the finest level that still covers the window.

        This is the §4.1.1 access pattern the hierarchy exists for:
        recent epochs are served from level 1 (per-epoch precision);
        once level 1 has recycled, successively coarser levels answer;
        when even the top level has moved on, the pushed history (the
        offline path) is consulted.  Returns the snapshots plus a label
        of the source used (``"level1"``..``"levelk"`` or
        ``"offline"``).  The analyzer consumes snapshots (not pre-merged
        slot sets) so it can score a sketch's answer against its shadow
        truth bitmap.
        """
        self.pull_requests += 1
        for level in range(1, self.store.k + 1):
            try:
                return self._read(level, epoch_lo, epoch_hi), f"level{level}"
            except RecycledEpochError:
                continue  # data loss at this level: escalate
        return covering_snapshots(self.pushed_history, self._pushed_lo,
                                  epoch_lo, epoch_hi), "offline"
