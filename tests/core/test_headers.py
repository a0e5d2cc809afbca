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

    def test_modulus_constant(self):
        assert VLAN_ID_MODULUS == 4096
