"""The ``exact`` directory backend: the paper's one-bit-per-host bitmap.

This is :class:`~repro.core.pointer.PointerSet` registered behind the
directory interface — the §4.1.1 design, the equivalence reference the
property suite pins every sketch against, and — under its alias
``"auto"`` — the deployment default.  It ignores the ``directory_bits``
budget: an exact directory always costs S bits per set (one bit per
end-host slot), which is precisely the scaling cliff the sketch
backends exist to trade against.
"""

from __future__ import annotations

from ..core.pointer import PointerSet
from .registry import DirectorySet, register_directory


@register_directory(
    "exact",
    summary="one-bit-per-host PointerSet bitmap — the equivalence "
    "reference (zero false positives)",
    memory_note="always `S` bits per set (ignores `directory_bits`)",
    aliases=("auto",),
)
def _exact_factory(n_slots: int, bits: int, hashes: int) -> DirectorySet:
    return PointerSet(n_slots)
