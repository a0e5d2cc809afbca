"""Telemetry headers carried in packets (§4.1.3).

Two encodings, as in the paper:

* :class:`VlanDoubleTag` — the commodity-switch design: IEEE 802.1ad
  double tagging.  The outer tag carries a *linkID* (the CherryPick-style
  sampled link that pins the end-to-end path on clos topologies); the
  inner tag carries the *epochID* of the switch that embedded the link
  tag.  Each VLAN ID field is 12 bits, so the epoch travels modulo 4096
  and the decoder unwraps it (:func:`repro.core.epoch.unwrap_epoch`).

* :class:`IntStack` — the clean-slate INT design: every switch on the
  path appends a full ``(switchID, epochID)`` record.  Works on
  arbitrary topologies at the cost of per-hop header growth.

Both expose ``wire_overhead_bytes()`` so experiments can account for
header tax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

VLAN_ID_BITS = 12
VLAN_ID_MODULUS = 1 << VLAN_ID_BITS      # 4096
VLAN_TAG_BYTES = 4                        # TPID(2) + TCI(2) per 802.1Q tag


class HeaderError(Exception):
    """Raised on malformed or out-of-range telemetry fields."""


@dataclass
class VlanDoubleTag:
    """802.1ad double tag: outer = linkID, inner = epochID mod 4096.

    ``link_id`` must fit the 12-bit VLAN ID space; topologies needing
    more distinct sampled links than 4096 are out of scope for the
    commodity design (the paper's fat-tree argument needs only the
    aggregate-core links).
    """

    link_id: int
    epoch_tag: int  # epochID mod 4096

    def __post_init__(self) -> None:
        if not 0 <= self.link_id < VLAN_ID_MODULUS:
            raise HeaderError(
                f"link_id {self.link_id} exceeds 12-bit VLAN ID space")
        if not 0 <= self.epoch_tag < VLAN_ID_MODULUS:
            raise HeaderError(
                f"epoch_tag {self.epoch_tag} not reduced mod 4096")

    @classmethod
    def embed(cls, link_id: int, absolute_epoch: int) -> "VlanDoubleTag":
        if absolute_epoch < 0:
            raise HeaderError("epoch cannot be negative")
        return cls(link_id=link_id,
                   epoch_tag=absolute_epoch % VLAN_ID_MODULUS)

    def wire_overhead_bytes(self) -> int:
        return 2 * VLAN_TAG_BYTES

    def encode(self) -> bytes:
        """Pack both tags as they would appear on the wire (TCI only)."""
        return bytes(((self.link_id >> 8) & 0x0F, self.link_id & 0xFF,
                      (self.epoch_tag >> 8) & 0x0F, self.epoch_tag & 0xFF))

    @classmethod
    def decode(cls, blob: bytes) -> "VlanDoubleTag":
        if len(blob) != 4:
            raise HeaderError(f"expected 4 TCI bytes, got {len(blob)}")
        link = ((blob[0] & 0x0F) << 8) | blob[1]
        epoch = ((blob[2] & 0x0F) << 8) | blob[3]
        return cls(link_id=link, epoch_tag=epoch)


@dataclass(frozen=True)
class IntHop:
    """One INT record: which switch, in which of its epochs."""

    switch_id: str
    epoch: int


@dataclass
class IntStack:
    """Clean-slate INT header: per-hop (switchID, epochID) records."""

    hops: list[IntHop] = field(default_factory=list)

    #: Bytes per INT record: 4 for a switch identifier + 4 for the epoch.
    BYTES_PER_HOP = 8
    #: INT shim/metadata header.
    BASE_BYTES = 4

    def push(self, switch_id: str, epoch: int) -> None:
        if epoch < 0:
            raise HeaderError("epoch cannot be negative")
        self.hops.append(IntHop(switch_id=switch_id, epoch=epoch))

    def switch_path(self) -> list[str]:
        return [h.switch_id for h in self.hops]

    def wire_overhead_bytes(self) -> int:
        return self.BASE_BYTES + self.BYTES_PER_HOP * len(self.hops)

    def __len__(self) -> int:
        return len(self.hops)
