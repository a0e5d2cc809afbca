"""Unit tests for the SwitchPointer per-packet pipeline."""

import pytest

from repro import SwitchPointerDeployment
from repro.core.epoch import EpochClock, EpochRange
from repro.core.headers import VlanDoubleTag
from repro.core.mphf import HostDirectory
from repro.core.pointer import HierarchicalPointerStore
from repro.simnet.packet import PROTO_UDP, make_udp
from repro.simnet.topology import build_fat_tree, build_linear
from repro.switchd.cherrypick import CherryPickPlanner
from repro.switchd.datapath import SwitchPointerDatapath

from benchmarks.test_fig9_datapath import VanillaDatapath


def instrumented_linear(alpha_ms=10, k=2):
    net = build_linear(3, 1)
    directory = HostDirectory(net.host_names)
    planner = CherryPickPlanner(net)
    dps = {}
    for name, sw in net.switches.items():
        store = HierarchicalPointerStore(directory.n, alpha=alpha_ms, k=k)
        dps[name] = SwitchPointerDatapath(
            sw, EpochClock(alpha_ms), directory.mphf, store,
            planner=planner)
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

    def test_packet_at_time_zero_lands_in_epoch_zero(self):
        net = build_linear(3, 1)
        deploy = SwitchPointerDeployment(
            net, alpha_ms=10, k=2,
            skew_of=lambda name: -0.002 if name in net.switches else 0.0)
        assert deploy.datapaths["S1"].clock.epoch_of(0.0) == -1
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        (rec,) = deploy.host_agents["h3_0"].store
        assert (rec.packets, rec.switch_path) == (1, ("S1", "S2", "S3"))
        slot = deploy.directory.slot_of("h3_0")
        for name in ("S1", "S2", "S3"):
            store = deploy.datapaths[name].store
            assert slot in store.snapshot(1, 0).slots()
            assert "h3_0" in deploy.analyzer.hosts_for(name,
                                                       EpochRange(0, 0))


class TestVlanEmbedding:
    def test_single_tag_embedded_at_pinning_hop(self):
        net, _, dps = instrumented_linear()
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        tag = got[0].telemetry
        assert isinstance(tag, VlanDoubleTag)
        # total embeds across the path: exactly one
        assert sum(dp.tags_embedded for dp in dps.values()) == 1

    def test_tag_carries_pinning_link_and_epoch(self):
        net, _, dps = instrumented_linear()
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
        net, _, dps = instrumented_linear()
        got = []
        net.hosts["h3_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        assert dps["S2"].tags_embedded == 0
        assert dps["S3"].tags_embedded == 0

    def test_one_frozen_tag_per_link_and_epoch(self):
        """Packets a switch tags on one link in one epoch carry the same
        tag object; the next epoch gets a tag of its own."""
        net, _, dps = instrumented_linear()
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

    def test_non_pinning_hop_records_pointer_without_tagging(self):
        """An inter-pod packet leaves its edge switch on one of two
        shortest paths: the edge records the pointer but embeds nothing,
        and the aggregate-core hop that pins the path tags it."""
        net = build_fat_tree(4)
        deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
        got = []
        net.hosts["h1_0_0"].bind(PROTO_UDP, 9, lambda p, t: got.append(p))
        net.hosts["h0_0_0"].send(make_udp("h0_0_0", "h1_0_0", 1, 9, 500))
        net.run()
        edge = deploy.datapaths["edge0_0"]
        assert edge.packets_processed == 1
        assert edge.tags_embedded == 0
        assert edge.store.updates == 1
        tagged = [name for name, dp in deploy.datapaths.items()
                  if dp.tags_embedded]
        assert len(tagged) == 1 and tagged[0].startswith("agg0_")
        assert isinstance(got[0].telemetry, VlanDoubleTag)

    def test_planner_is_required(self):
        net = build_linear(2, 1)
        directory = HostDirectory(net.host_names)
        store = HierarchicalPointerStore(directory.n, alpha=10, k=2)
        with pytest.raises(TypeError, match="planner"):
            SwitchPointerDatapath(net.switches["S1"], EpochClock(10),
                                  directory.mphf, store)


class TestOneHeader:
    """The VLAN double tag is the only header: no ``mode`` option is
    left to select another."""

    def test_datapath_takes_no_mode(self):
        net = build_linear(2, 1)
        directory = HostDirectory(net.host_names)
        store = HierarchicalPointerStore(directory.n, alpha=10, k=2)
        with pytest.raises(TypeError, match="mode"):
            SwitchPointerDatapath(net.switches["S1"], EpochClock(10),
                                  directory.mphf, store,
                                  planner=CherryPickPlanner(net),
                                  mode="int")

    def test_deployment_takes_no_mode(self):
        with pytest.raises(TypeError, match="mode"):
            SwitchPointerDeployment(build_linear(2, 1), mode="int")


class TestVanillaBaseline:
    """The Fig 9 benchmark's forwarding-only baseline."""

    def test_flow_table_probe(self):
        vanilla = VanillaDatapath([f"h{i}" for i in range(100)])
        port = vanilla.process("h5")
        assert isinstance(port, int)
        assert vanilla.packets_processed == 1

    def test_unknown_destination_raises(self):
        vanilla = VanillaDatapath(["h0"])
        with pytest.raises(KeyError):
            vanilla.process("ghost")
