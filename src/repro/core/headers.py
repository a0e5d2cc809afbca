"""The telemetry header carried in packets (§4.1.3).

:class:`VlanDoubleTag` is the commodity-switch design: IEEE 802.1ad
double tagging.  The outer tag carries a *linkID* (the CherryPick-style
sampled link that pins the end-to-end path on clos topologies); the
inner tag carries the *epochID* of the switch that embedded the link
tag.  Each VLAN ID field is 12 bits, so the epoch travels modulo 4096
and the decoder unwraps it (:func:`repro.core.epoch.unwrap_epoch`).
``2 * VLAN_TAG_BYTES`` is the header tax experiments account for.
"""

from __future__ import annotations

from dataclasses import dataclass

VLAN_ID_BITS = 12
VLAN_ID_MODULUS = 1 << VLAN_ID_BITS      # 4096
VLAN_TAG_BYTES = 4                        # TPID(2) + TCI(2) per 802.1Q tag


class HeaderError(Exception):
    """Raised on malformed or out-of-range telemetry fields."""


@dataclass(frozen=True)
class VlanDoubleTag:
    """802.1ad double tag: outer = linkID, inner = epochID mod 4096.

    ``link_id`` must fit the 12-bit VLAN ID space; topologies needing
    more distinct sampled links than 4096 are out of scope for the
    commodity design (the paper's fat-tree argument needs only the
    aggregate-core links).  Frozen: every packet a switch tags on one
    link in one epoch carries the same tag object.
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

