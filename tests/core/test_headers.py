"""Unit tests for telemetry header codecs."""

import pytest

from repro.core.headers import HeaderError, VlanDoubleTag, VLAN_ID_MODULUS


class TestVlanDoubleTag:
    def test_embed_reduces_epoch_mod_4096(self):
        tag = VlanDoubleTag.embed(link_id=5, absolute_epoch=8202)
        assert tag.epoch_tag == 8202 % 4096

    def test_link_id_range_enforced(self):
        with pytest.raises(HeaderError):
            VlanDoubleTag(link_id=4096, epoch_tag=0)
        with pytest.raises(HeaderError):
            VlanDoubleTag(link_id=-1, epoch_tag=0)

    def test_epoch_tag_range_enforced(self):
        with pytest.raises(HeaderError):
            VlanDoubleTag(link_id=0, epoch_tag=4096)

    def test_negative_epoch_rejected(self):
        with pytest.raises(HeaderError):
            VlanDoubleTag.embed(link_id=0, absolute_epoch=-1)

    def test_wire_overhead_is_two_tags(self):
        tag = VlanDoubleTag.embed(1, 1)
        assert tag.wire_overhead_bytes() == 8  # 2 x 802.1Q tag

    def test_encode_decode_roundtrip(self):
        for link, epoch in ((0, 0), (4095, 4095), (123, 456)):
            tag = VlanDoubleTag(link_id=link, epoch_tag=epoch)
            assert VlanDoubleTag.decode(tag.encode()) == tag

    def test_decode_length_check(self):
        with pytest.raises(HeaderError):
            VlanDoubleTag.decode(b"\x00\x01\x02")

    def test_modulus_constant(self):
        assert VLAN_ID_MODULUS == 4096
