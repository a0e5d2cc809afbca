"""Pointer sets and the hierarchical pointer store (§4.1.1–§4.1.2).

A *pointer set* is a bit array with one bit per end-host slot (slot =
MPHF(destination)).  Bit set ⇒ "this switch forwarded at least one
packet to that end-host during this set's time window" — the directory
entry that later tells the analyzer where telemetry lives.

The *hierarchical store* keeps k levels of pointer sets over
exponentially growing windows (epoch duration α ms):

* level h ∈ [1, k−1]: α sets, each covering αʰ ms (= αʰ⁻¹ epochs);
  together they span αʰ⁺¹ ms,
* level k (top): a single set covering αᵏ ms, pushed to the control
  plane every αᵏ ms for persistent storage (offline diagnosis).

Updates are O(k) bit-sets off one shared slot index — the "one hash
operation per packet, same index across all levels" property the MPHF
buys (§4.1.2).  Sets rotate lazily: a set is reset only when a packet
first touches its reused window, so an un-overwritten set remains
queryable for its *old* window (tag-validated).  A set is built by the
first packet that writes it: a window no packet reached costs no bitmap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

_BIT_MASKS = [1 << i for i in range(8)]

#: the set bits of every byte value, as offsets 0-7 ascending: one table
#: lookup per non-zero byte decodes a bitmap
_BYTE_SLOTS = tuple(tuple(bit for bit in range(8) if value >> bit & 1)
                    for value in range(256))


def bitmap_slots(bits: bytes) -> list[int]:
    """The indices of the set bits of a little-endian bitmap, ascending."""
    table = _BYTE_SLOTS
    return [base + bit
            for base, byte in zip(range(0, len(bits) << 3, 8), bits) if byte
            for bit in table[byte]]


class PointerSet:
    """Fixed-size bit array over end-host slots.

    Doubles as the ``exact`` directory backend (see
    :mod:`repro.directory`): it implements the full ``DirectorySet``
    surface with zero false positives, and is the reference every
    sketch backend is pinned against.
    """

    #: registry name under which this set type answers queries
    backend_name = "exact"

    __slots__ = ("n_slots", "_bits", "popcount")

    def __init__(self, n_slots: int):
        if n_slots <= 0:
            raise ValueError("need at least one slot")
        self.n_slots = n_slots
        self._bits = bytearray((n_slots + 7) // 8)
        self.popcount = 0

    def set_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.n_slots})")
        byte, bit = slot >> 3, slot & 7
        if not self._bits[byte] & _BIT_MASKS[bit]:
            self._bits[byte] |= _BIT_MASKS[bit]
            self.popcount += 1

    def test_slot(self, slot: int) -> bool:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.n_slots})")
        return bool(self._bits[slot >> 3] & _BIT_MASKS[slot & 7])

    def clear(self) -> None:
        self._bits[:] = bytes(len(self._bits))
        self.popcount = 0

    def iter_slots(self) -> Iterator[int]:
        """Yield the indices of all set bits, ascending."""
        return iter(bitmap_slots(self._bits))

    def union_into(self, other: "PointerSet") -> None:
        """OR this set's bits into ``other`` (same size required).

        Incremental popcount: only the bits this union *newly* sets are
        counted (``merged ^ theirs``), instead of re-scanning the whole
        result array — this sits on the per-epoch coalescing hot path,
        where the old full recount dominated at 65k slots.  The OR
        itself runs as one big-int operation (C loop, not a Python
        per-byte loop).
        """
        if other.n_slots != self.n_slots:
            raise ValueError("pointer sets differ in size")
        mine = int.from_bytes(self._bits, "little")
        if not mine:
            return
        theirs = int.from_bytes(other._bits, "little")
        merged = mine | theirs
        if merged != theirs:
            other._bits[:] = merged.to_bytes(len(other._bits), "little")
            other.popcount += (merged ^ theirs).bit_count()

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, n_slots: int, blob: bytes) -> "PointerSet":
        ps = cls(n_slots)
        ps.load(blob)
        return ps

    def load(self, blob: bytes) -> None:
        """Deserialize a :meth:`to_bytes` payload (directory surface)."""
        if len(blob) != len(self._bits):
            raise ValueError(
                f"payload is {len(blob)} bytes, bitmap needs "
                f"{len(self._bits)}")
        value = int.from_bytes(blob, "little")
        stray = value >> self.n_slots
        if stray:
            bad = [bit for bit in range(self.n_slots, 8 * len(blob))
                   if value >> bit & 1]
            raise ValueError(
                f"payload sets bit(s) {bad} past the bitmap's "
                f"{self.n_slots} slots")
        self._bits[:] = blob
        self.popcount = value.bit_count()

    def estimate(self) -> int:
        """Member-count estimate (exact for the bitmap: the popcount)."""
        return self.popcount

    def truth_bytes(self) -> bytes:
        """The exact membership bitmap — for this backend, the payload."""
        return self.to_bytes()

    @property
    def sketch_params(self) -> tuple[int, int]:
        """``(bits, hashes)`` decode identity; exact sets have none."""
        return (0, 0)

    @property
    def size_bits(self) -> int:
        """S in the paper's sizing formulas: one bit per end-host."""
        return self.n_slots

    def __len__(self) -> int:
        return self.popcount

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PointerSet)
                and other.n_slots == self.n_slots
                and other._bits == self._bits)


@dataclass(frozen=True)
class PointerSnapshot:
    """An immutable view of one pointer set, as pulled by the analyzer.

    ``segment`` identifies the window: the set covers epochs
    ``[segment * epochs_covered, (segment+1) * epochs_covered)``.

    ``backend`` names the directory backend that produced ``bits``
    (``"exact"`` = the plain bitmap; anything else decodes through the
    :mod:`repro.directory` registry with the recorded ``bits_budget``/
    ``hashes`` geometry).  ``truth_bits`` is the measurement-only exact
    shadow bitmap a sketch carries so the analyzer can score false
    positives — it never feeds :meth:`slots` and contributes nothing to
    ``size_bits``.
    """

    level: int
    segment: int
    epochs_covered: int
    bits: bytes
    n_slots: int
    backend: str = "exact"
    bits_budget: int = 0
    hashes: int = 0
    sketch_bits: int = 0
    truth_bits: bytes = b""

    @property
    def epoch_lo(self) -> int:
        return self.segment * self.epochs_covered

    @property
    def epoch_hi(self) -> int:
        return (self.segment + 1) * self.epochs_covered - 1

    def slots(self) -> list[int]:
        """The recorded slot *superset* (exact for the bitmap backend)."""
        if self.backend == "exact":
            return bitmap_slots(self.bits)
        # call-time import: core stays importable without the directory
        # registry (which itself imports this module for the bitmap)
        from ..directory import decode_directory_set

        ds = decode_directory_set(self.backend, self.n_slots, self.bits,
                                  bits=self.bits_budget, hashes=self.hashes)
        return list(ds.iter_slots())

    def true_slots(self) -> list[int]:
        """The exact slot set (shadow truth for sketches; measurement)."""
        if self.backend == "exact":
            return self.slots()
        return bitmap_slots(self.truth_bits)

    @property
    def size_bits(self) -> int:
        """Modeled memory/transfer cost of this set (sketch-aware)."""
        return self.sketch_bits or self.n_slots


#: builds one empty directory set (PointerSet or a registered sketch)
SetFactory = Callable[[], Any]


class _LevelSlot:
    """One rotating pointer set with its current window tag; the set is
    ``None`` until the first write, exactly while ``segment`` is."""

    __slots__ = ("pointer", "segment")

    def __init__(self) -> None:
        self.pointer: Any = None
        self.segment: Optional[int] = None  # None = never used

    def rotate(self, segment: int, factory: SetFactory) -> None:
        """Start ``segment``'s window with an empty set."""
        if self.pointer is None:
            self.pointer = factory()
        else:
            self.pointer.clear()
        self.segment = segment


class HierarchicalPointerStore:
    """The k-level pointer hierarchy of one switch.

    Parameters
    ----------
    n_slots:
        Number of end-host slots (MPHF range).
    alpha:
        α — both the epoch duration in ms and the per-level fan-out
        (each level holds α sets), exactly as in the paper.
    k:
        Number of levels; k = 1 degenerates to a single pushed set.
    on_push:
        Callback invoked with a :class:`PointerSnapshot` whenever the
        top-level set completes its αᵏ ms window and is handed to the
        control plane (push model, §4.1.1).
    set_factory:
        Builds each of the hierarchy's directory sets.  Defaults to the
        exact bitmap; deployments pass a sketch factory from the
        :mod:`repro.directory` registry to trade memory for a
        false-positive rate (all sets share one geometry).
    """

    def __init__(self, n_slots: int, alpha: int, k: int, *,
                 on_push: Optional[Callable[[PointerSnapshot],
                                            None]] = None,
                 set_factory: Optional[SetFactory] = None):
        if alpha < 2:
            raise ValueError("alpha must be >= 2 (need a real hierarchy)")
        if k < 1:
            raise ValueError("need at least one level")
        self.n_slots = n_slots
        self.alpha = alpha
        self.k = k
        self.on_push = on_push
        factory: SetFactory = (
            (lambda: PointerSet(n_slots))
            if set_factory is None else set_factory)
        self.set_factory = factory
        # levels[h-1] for h in 1..k-1 holds alpha slots; top is separate.
        self._levels: list[list[_LevelSlot]] = [
            [_LevelSlot() for _ in range(alpha)] for _ in range(k - 1)]
        self._top = _LevelSlot()
        sample = factory()
        if sample.n_slots != n_slots:
            raise ValueError(
                f"set_factory builds {sample.n_slots}-slot sets, "
                f"store needs {n_slots}")
        #: registry name of the directory backend every set uses
        self.backend: str = sample.backend_name
        #: modeled bits per set (sketch-aware; S for the exact bitmap)
        self.set_size_bits: int = sample.size_bits
        # per-level epoch divisors, precomputed: the update path runs
        # per forwarded packet and must not exponentiate (§4.1.2's
        # "one operation per packet" spirit)
        self._divisors = [alpha ** h for h in range(k)]
        self.updates = 0
        self.pushes = 0

    # -- geometry ------------------------------------------------------------

    def epochs_covered(self, level: int) -> int:
        """Epochs per set at ``level`` (1-based): αˡᵉᵛᵉˡ⁻¹; top: αᵏ⁻¹."""
        if not 1 <= level <= self.k:
            raise ValueError(f"level {level} outside [1, {self.k}]")
        return self._divisors[level - 1]

    def window_ms(self, level: int, alpha_ms: Optional[float] = None) -> float:
        """Wall-clock coverage of one set at ``level`` (αˡᵉᵛᵉˡ ms)."""
        a_ms = self.alpha if alpha_ms is None else alpha_ms
        return a_ms * self.epochs_covered(level)

    def _segment_of(self, level: int, epoch: int) -> int:
        return epoch // self.epochs_covered(level)

    # -- dataplane update ----------------------------------------------------

    def update(self, epoch: int, slot: int) -> None:
        """Record "forwarded a packet to slot in epoch" across all levels.

        This is the per-packet path: one slot index (computed once by the
        caller via the MPHF) is set in one set per level, rotating any
        set whose window has moved on.
        """
        self.updates += 1
        alpha = self.alpha
        divisors = self._divisors
        for level_idx, level_slots in enumerate(self._levels):
            seg = epoch // divisors[level_idx]
            ls = level_slots[seg % alpha]
            if ls.segment != seg:
                ls.rotate(seg, self.set_factory)
            ls.pointer.set_slot(slot)
        seg = epoch // divisors[self.k - 1]
        top = self._top
        if top.segment != seg:
            if top.segment is not None:
                self._push_top()
            top.rotate(seg, self.set_factory)
        top.pointer.set_slot(slot)

    def _push_top(self) -> None:
        self.pushes += 1
        if self.on_push is not None and self._top.segment is not None:
            self.on_push(self._snapshot_of(self.k, self._top))

    def flush_top(self) -> None:
        """Force-push the current top-level set (e.g. at shutdown)."""
        if self._top.segment is not None:
            self._push_top()

    # -- analyzer pull model -----------------------------------------------

    def _slots_at(self, level: int) -> list[_LevelSlot]:
        return ([self._top] if level == self.k
                else self._levels[level - 1])

    def _snapshot_of(self, level: int, ls: _LevelSlot) -> PointerSnapshot:
        assert ls.segment is not None
        p = ls.pointer
        backend = p.backend_name
        return PointerSnapshot(level=level, segment=ls.segment,
                               epochs_covered=self.epochs_covered(level),
                               bits=p.to_bytes(),
                               n_slots=self.n_slots,
                               backend=backend,
                               bits_budget=p.sketch_params[0],
                               hashes=p.sketch_params[1],
                               sketch_bits=p.size_bits,
                               truth_bits=(b"" if backend == "exact"
                                           else p.truth_bytes()))

    def snapshot(self, level: int, epoch: int) -> Optional[PointerSnapshot]:
        """The live set covering ``epoch`` at ``level``, if still held.

        Returns ``None`` when the window was never populated or has been
        recycled (:meth:`epoch_status` tells the two apart); lazy
        rotation keeps tags honest, so it never returns wrong data.
        Raises ``ValueError`` for a level outside ``[1, k]``.
        """
        seg = self._segment_of(level, epoch)
        for ls in self._slots_at(level):
            if ls.segment == seg:
                return self._snapshot_of(level, ls)
        return None

    def epoch_status(self, level: int, epoch: int) -> str:
        """How ``level`` can answer for ``epoch``.

        * ``"live"`` — the covering set still holds that window's bits.
        * ``"empty"`` — the window was never written (its set slot was
          never advanced that far), so "no hosts" is the *correct*
          answer, not data loss.  Negative epochs are empty by
          definition.
        * ``"recycled"`` — the set has been reused by a newer window;
          the data existed and is gone at this level (escalate).

        Raises ``ValueError`` for a level outside ``[1, k]``.
        """
        seg = self._segment_of(level, epoch)
        if epoch < 0:
            return "empty"
        slots = self._slots_at(level)
        ls = (self._top if level == self.k
              else slots[seg % self.alpha])
        if ls.segment == seg:
            return "live"
        if ls.segment is None or ls.segment < seg:
            return "empty"
        return "recycled"

    def snapshots_covering(self, level: int, epoch_lo: int,
                           epoch_hi: int) -> list[PointerSnapshot]:
        """All live sets at ``level`` intersecting ``[epoch_lo, epoch_hi]``."""
        if epoch_lo > epoch_hi:
            raise ValueError("empty epoch range")
        span = self.epochs_covered(level)
        seg_lo, seg_hi = epoch_lo // span, epoch_hi // span
        out = []
        for ls in self._slots_at(level):
            if ls.segment is not None and seg_lo <= ls.segment <= seg_hi:
                out.append(self._snapshot_of(level, ls))
        return sorted(out, key=lambda s: s.segment)

    # -- accounting (Fig 10a) -----------------------------------------------

    @property
    def total_pointer_sets(self) -> int:
        return self.alpha * (self.k - 1) + 1

    @property
    def memory_bits(self) -> int:
        """α·(k−1)·B + B, B = bits per set — the paper's switch-memory
        formula (B = S for the exact bitmap; a sketch's bit budget
        otherwise, which is what the ``directory-bits`` sweep charts)."""
        return self.total_pointer_sets * self.set_size_bits
