"""Unit tests for the SwitchPointer per-packet pipeline."""

import pytest

from repro import SwitchPointerDeployment
from repro.core.epoch import EpochClock, EpochRange
from repro.core.headers import IntStack, VlanDoubleTag
from repro.core.mphf import HostDirectory
from repro.core.pointer import HierarchicalPointerStore
from repro.simnet.packet import PROTO_UDP, make_udp
from repro.simnet.topology import build_linear
from repro.switchd.cherrypick import CherryPickPlanner
from repro.switchd.datapath import (MODE_INT, MODE_NONE, MODE_VLAN,
                                    SwitchPointerDatapath, VanillaDatapath)


def instrumented_linear(mode=MODE_VLAN, alpha_ms=10, k=2):
    net = build_linear(3, 1)
    directory = HostDirectory(net.host_names)
    planner = CherryPickPlanner(net)
    dps = {}
    for name, sw in net.switches.items():
        store = HierarchicalPointerStore(directory.n, alpha=alpha_ms, k=k)
        dps[name] = SwitchPointerDatapath(
            sw, EpochClock(alpha_ms), directory.mphf, store,
            planner=planner, mode=mode)
    return net, directory, dps


class TestPointerUpdates:
    def test_every_forwarded_packet_updates_pointer(self):
        net, directory, dps = instrumented_linear()
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        slot = directory.slot_of("h3_0")
        for name in ("S1", "S2", "S3"):
            assert dps[name].packets_processed == 1
            assert slot in dps[name].store.snapshot(1, 0).slots()

    def test_slot_matches_directory(self):
        net, directory, dps = instrumented_linear()
        slot = dps["S1"].process_slot_update("h3_0", epoch=0)
        assert slot == directory.slot_of("h3_0")

    def test_epoch_taken_from_switch_clock(self):
        net, directory, dps = instrumented_linear(alpha_ms=10)
        sim = net.sim
        sim.schedule(0.025, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        # 25 ms -> epoch 2
        store = dps["S1"].store
        assert directory.slot_of("h3_0") in store.snapshot(1, 2).slots()
        assert store.snapshots_covering(1, 0, 1) == []


class TestClockBehind:
    """A switch clock behind true time reads epoch -1 at the start of a
    run; until its counter reaches 0 the switch records epoch 0."""

    @pytest.mark.parametrize("mode", [MODE_VLAN, MODE_INT])
    def test_packet_at_time_zero_lands_in_epoch_zero(self, mode):
        net = build_linear(3, 1)
        deploy = SwitchPointerDeployment(
            net, alpha_ms=10, k=2, mode=mode,
            skew_of=lambda name: -0.002 if name in net.switches else 0.0)
        assert deploy.datapaths["S1"].clock.epoch_of(0.0) == -1
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        (rec,) = deploy.host_agents["h3_0"].store
        assert (rec.packets, rec.switch_path) == (1, ["S1", "S2", "S3"])
        slot = deploy.directory.slot_of("h3_0")
        for name in ("S1", "S2", "S3"):
            store = deploy.datapaths[name].store
            assert slot in store.snapshot(1, 0).slots()
            assert "h3_0" in deploy.analyzer.hosts_for(name,
                                                       EpochRange(0, 0))


class TestVlanEmbedding:
    def test_single_tag_embedded_at_pinning_hop(self):
        net, _, dps = instrumented_linear(MODE_VLAN)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        tag = got[0].telemetry
        assert isinstance(tag, VlanDoubleTag)
        # total embeds across the path: exactly one
        assert sum(dp.tags_embedded for dp in dps.values()) == 1

    def test_tag_carries_pinning_link_and_epoch(self):
        net, _, dps = instrumented_linear(MODE_VLAN)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.sim.schedule(0.033, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        tag = got[0].telemetry
        link = net.link_by_vlan(tag.link_id)
        assert "S1" in link.endpoints  # first switch's egress pinned
        assert tag.epoch_tag == 3

    def test_downstream_switch_does_not_overwrite(self):
        net, _, dps = instrumented_linear(MODE_VLAN)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        assert dps["S2"].tags_embedded == 0
        assert dps["S3"].tags_embedded == 0

    def test_one_frozen_tag_per_link_and_epoch(self):
        """Packets a switch tags on one link in one epoch carry the same
        tag object; the next epoch gets a tag of its own."""
        net, _, dps = instrumented_linear(MODE_VLAN)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        for at in (0.001, 0.002, 0.012):
            net.sim.schedule(at, lambda: net.hosts["h1_0"].send(
                make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        first, second, later = (p.telemetry for p in got)
        assert first is second and later is not first
        assert (first.epoch_tag, later.epoch_tag) == (0, 1)
        assert dps["S1"].tags_embedded == 3
        with pytest.raises(AttributeError):
            first.epoch_tag = 5

    def test_vlan_mode_requires_planner(self):
        net = build_linear(2, 1)
        directory = HostDirectory(net.host_names)
        store = HierarchicalPointerStore(directory.n, alpha=10, k=2)
        with pytest.raises(ValueError):
            SwitchPointerDatapath(net.switches["S1"], EpochClock(10),
                                  directory.mphf, store, mode=MODE_VLAN)


class TestIntEmbedding:
    def test_every_hop_appends_record(self):
        net, _, dps = instrumented_linear(MODE_INT)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        stack = got[0].telemetry
        assert isinstance(stack, IntStack)
        assert stack.switch_path() == ["S1", "S2", "S3"]

    def test_int_records_per_switch_epochs(self):
        net, _, dps = instrumented_linear(MODE_INT, alpha_ms=10)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.sim.schedule(0.015, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        stack = got[0].telemetry
        assert [(h.switch_id, h.epoch) for h in stack.hops] == [
            ("S1", 1), ("S2", 1), ("S3", 1)]


class TestModes:
    def test_none_mode_embeds_nothing(self):
        net, _, dps = instrumented_linear(MODE_NONE)
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        assert got[0].telemetry is None
        # pointers still maintained (directory-only deployment)
        assert dps["S1"].store.updates == 1

    def test_unknown_mode_rejected(self):
        net = build_linear(2, 1)
        directory = HostDirectory(net.host_names)
        store = HierarchicalPointerStore(directory.n, alpha=10, k=2)
        with pytest.raises(ValueError):
            SwitchPointerDatapath(net.switches["S1"], EpochClock(10),
                                  directory.mphf, store, mode="bogus")


class TestVanillaBaseline:
    def test_flow_table_probe(self):
        vanilla = VanillaDatapath([f"h{i}" for i in range(100)])
        port = vanilla.process("h5")
        assert isinstance(port, int)
        assert vanilla.packets_processed == 1

    def test_unknown_destination_raises(self):
        vanilla = VanillaDatapath(["h0"])
        with pytest.raises(KeyError):
            vanilla.process("ghost")
