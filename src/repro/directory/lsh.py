"""The ``lsh`` directory backend: bloom membership + minhash signatures.

Membership queries reuse the bloom filter unchanged (same superset
contract, same saturation behavior), and each set additionally carries
a fixed-width **minhash signature** — one 64-bit row per independent
hash, the row holding the minimum hash over the slots inserted so far.
Signatures union by elementwise minimum (idempotent and commutative,
so level coalescing and control-plane merging keep them meaningful)
and support the similarity machinery of TCAM-LSH-style lookup:

* ``jaccard(other)`` — the fraction of matching rows estimates the
  Jaccard similarity of the two slot sets;
* ``band_matches(other)`` — rows grouped into bands of
  ``directory_hashes`` rows; a fully-matching band flags the pair as
  similarity candidates (the banding trick: near-duplicates collide in
  some band with high probability).

The analyzer's "find switches whose directories look like this
culprit's" query (:func:`repro.analyzer.apps.rank_co_suspects`) ranks
candidates by these signatures when the deployment runs this backend.
"""

from __future__ import annotations

from .bloom import BloomDirectorySet
from .hashing import row_hashes
from .registry import DirectoryError, DirectorySet, register_directory

#: signature width: 16 independent minhash rows per set
SIG_ROWS = 16
#: bits modeled per signature row (64-bit hashes, serialized verbatim)
SIG_ROW_BITS = 64
#: an empty set's row value (no slot has hashed below it yet)
EMPTY_ROW = (1 << 64) - 1


class LshDirectorySet(BloomDirectorySet):
    """Bloom membership plus a banded minhash signature."""

    backend_name = "lsh"

    __slots__ = ("_sig",)

    def __init__(self, n_slots: int, bits: int, hashes: int):
        super().__init__(n_slots, bits, hashes)
        self._sig = [EMPTY_ROW] * SIG_ROWS

    def set_slot(self, slot: int) -> None:
        super().set_slot(slot)
        sig = self._sig
        for row, h in enumerate(row_hashes(slot, SIG_ROWS)):
            if h < sig[row]:
                sig[row] = h

    def clear(self) -> None:
        super().clear()
        self._sig = [EMPTY_ROW] * SIG_ROWS

    def union_into(self, other: "DirectorySet") -> None:
        super().union_into(other)
        assert isinstance(other, LshDirectorySet)
        other._sig = [
            min(mine, theirs)
            for mine, theirs in zip(self._sig, other._sig)
        ]

    def to_bytes(self) -> bytes:
        sig = b"".join(row.to_bytes(8, "big") for row in self._sig)
        return bytes(self._bits) + sig

    def load(self, blob: bytes) -> None:
        filter_len = (self.m_bits + 7) // 8
        if len(blob) != filter_len + 8 * SIG_ROWS:
            raise DirectoryError(
                f"payload is {len(blob)} bytes, lsh set needs "
                f"{filter_len + 8 * SIG_ROWS}"
            )
        super().load(blob[:filter_len])
        self._sig = [
            int.from_bytes(blob[filter_len + 8 * row:
                                filter_len + 8 * (row + 1)], "big")
            for row in range(SIG_ROWS)
        ]

    @property
    def size_bits(self) -> int:
        return self.m_bits + SIG_ROWS * SIG_ROW_BITS

    # -- similarity queries --------------------------------------------------

    @property
    def is_empty_signature(self) -> bool:
        return all(row == EMPTY_ROW for row in self._sig)

    def jaccard(self, other: "LshDirectorySet") -> float:
        """Estimated Jaccard similarity: fraction of matching rows."""
        if self.is_empty_signature and other.is_empty_signature:
            return 0.0
        matches = sum(
            1 for a, b in zip(self._sig, other._sig) if a == b
        )
        return matches / SIG_ROWS

    def band_matches(self, other: "LshDirectorySet") -> int:
        """Fully-matching bands of ``k_hashes`` rows (LSH candidacy)."""
        band = max(1, min(self.k_hashes, SIG_ROWS))
        count = 0
        for start in range(0, SIG_ROWS - band + 1, band):
            if self._sig[start:start + band] == other._sig[
                start:start + band
            ]:
                count += 1
        return count


@register_directory(
    "lsh",
    summary="bloom membership + banded minhash signatures for "
    "similarity-ranked co-suspect queries",
    memory_note="bloom budget plus a fixed 16x64-bit signature "
    "(`directory_bits + 1024` bits per set)",
)
def _lsh_factory(n_slots: int, bits: int, hashes: int) -> DirectorySet:
    return LshDirectorySet(n_slots, bits, hashes)
