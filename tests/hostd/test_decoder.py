"""Unit tests for destination-side telemetry decoding."""

from repro.core.epoch import EpochClock, EpochRangeEstimator, unwrap_epoch
from repro.core.mphf import HostDirectory
from repro.core.pointer import HierarchicalPointerStore
from repro.hostd.decoder import TelemetryDecoder
from repro.hostd.records import FlowRecordStore
from repro.simnet.packet import make_udp
from repro.simnet.topology import (build_fat_tree, build_leaf_spine,
                                   build_linear)
from repro.switchd.cherrypick import CherryPickPlanner
from repro.switchd.datapath import SwitchPointerDatapath
from tests.hostd.eager_records import ranges_of
from tests.simnet.trajectory import Trajectories


def instrument(net, alpha_ms=10, epsilon_ms=1.0,
               delta_ms=2.0, skew=None):
    """Wire datapaths on all switches + a decoder on every host."""
    directory = HostDirectory(net.host_names)
    planner = CherryPickPlanner(net)
    estimator = EpochRangeEstimator(alpha_ms, epsilon_ms, delta_ms)
    skew = skew or (lambda name: 0.0)
    for name, sw in net.switches.items():
        store = HierarchicalPointerStore(directory.n, alpha=alpha_ms, k=2)
        SwitchPointerDatapath(sw, EpochClock(alpha_ms, skew_s=skew(name)),
                              directory.mphf, store, planner=planner)
    decoders = {}
    for name, host in net.hosts.items():
        store = FlowRecordStore(name)
        dec = TelemetryDecoder(store, EpochClock(alpha_ms,
                                                 skew_s=skew(name)),
                               planner, estimator)
        host.sniffers.append(dec.on_packet)
        decoders[name] = dec
    return decoders


class TestVlanDecoding:
    def test_path_reconstruction_matches_ground_truth(self):
        net = build_linear(3, 1)
        decoders = instrument(net)
        net.hosts["h1_0"].send(make_udp("h1_0", "h3_0", 1, 9, 500))
        net.run()
        rec = decoders["h3_0"].store.get(
            net.hosts["h1_0"].nic.link.iface_a and
            next(iter(decoders["h3_0"].store)).flow)
        rec = next(iter(decoders["h3_0"].store))
        assert rec.switch_path == ("S1", "S2", "S3")
        assert decoders["h3_0"].decoded == 1

    def test_epoch_range_covers_true_epoch_every_switch(self):
        net = build_linear(3, 1)
        decoders = instrument(net, alpha_ms=10)
        net.sim.schedule(0.047, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        rec = next(iter(decoders["h3_0"].store))
        for sw in ("S1", "S2", "S3"):
            assert 4 in rec.epochs_at(sw)  # true epoch at all hops (47 ms)

    def test_fat_tree_interpod_reconstruction(self):
        net = build_fat_tree(4)
        decoders = instrument(net)
        trail = Trajectories(net)
        src, dst = "h0_0_0", "h2_1_0"
        caught = []
        net.hosts[dst].sniffers.append(lambda h, p, t: caught.append(p))
        net.hosts[src].send(make_udp(src, dst, 1, 9, 500))
        net.run()
        rec = next(iter(decoders[dst].store))
        assert list(rec.switch_path) == trail.of(caught[0])  # ground truth
        assert len(rec.switch_path) == 5

    def test_bytes_accumulate_per_observed_epoch(self):
        net = build_linear(2, 1)
        decoders = instrument(net, alpha_ms=10)
        for i in range(3):
            net.sim.schedule(0.012 + i * 0.001,
                             lambda: net.hosts["h1_0"].send(
                                 make_udp("h1_0", "h2_0", 1, 9, 500)))
        net.run()
        rec = next(iter(decoders["h2_0"].store))
        assert rec.bytes == 1500
        assert rec.bytes_by_epoch.get(1) == 1500  # all in epoch 1

    def test_priority_recorded(self):
        net = build_linear(2, 1)
        decoders = instrument(net)
        net.hosts["h1_0"].send(make_udp("h1_0", "h2_0", 1, 9, 500,
                                        priority=2))
        net.run()
        assert next(iter(decoders["h2_0"].store)).priority == 2


class TestVlanWithSkew:
    def test_range_covers_truth_under_bounded_skew(self):
        """Per-device skews within ε must never break coverage."""
        skews = {"S1": 0.0004, "S2": -0.0004, "S3": 0.0002,
                 "h1_0": -0.0003, "h3_0": 0.0004}
        net = build_linear(3, 1)
        decoders = instrument(net, alpha_ms=10, epsilon_ms=1.0,
                              skew=lambda n: skews.get(n, 0.0))
        send_at = 0.0399  # next to an epoch boundary: worst case
        net.sim.schedule(send_at, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        rec = next(iter(decoders["h3_0"].store))
        for sw, skew in (("S1", 0.0004), ("S2", -0.0004), ("S3", 0.0002)):
            true_epoch = EpochClock(10, skew_s=skew).epoch_of(send_at)
            assert true_epoch in rec.epochs_at(sw), sw


class TestUnskewedDecoding:
    def test_every_switch_range_holds_the_send_epoch(self):
        """With no skew allowance the one tag still gives every hop a
        range holding the epoch the packet crossed it in."""
        net = build_linear(3, 1)
        decoders = instrument(net, epsilon_ms=0.0)
        net.sim.schedule(0.025, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h3_0", 1, 9, 500)))
        net.run()
        rec = next(iter(decoders["h3_0"].store))
        assert rec.switch_path == ("S1", "S2", "S3")
        for sw in rec.switch_path:
            assert rec.epochs_at(sw) is not None
            assert 2 in rec.epochs_at(sw)


class TestUndecodable:
    def test_untagged_packet_counted_not_recorded(self):
        net = build_linear(2, 1)
        decoders = instrument(net)
        # bypass the instrumented switches: deliver straight to the host
        host = net.hosts["h2_0"]
        pkt = make_udp("h1_0", "h2_0", 1, 9, 500)
        host.receive(pkt, host.nic)
        assert decoders["h2_0"].undecodable == 1
        assert len(decoders["h2_0"].store) == 0


class TestPlanDecodeEquivalence:
    """``on_packet`` decodes through the planner's shared path plans and
    reuses one parse per (path, observed epoch); the records it leaves
    must equal the packet-by-packet reference: scan the pair's shortest
    paths for the tagged link, extrapolate every hop."""

    ALPHA, EPS, DELTA = 10, 1.0, 2.0
    #: the host ahead of the switches, within ε: a tag embedded in the
    #: last epoch before the 12-bit wrap is decoded just after it
    SKEWS = {"h1_0": 0.0006, "h0_0": -0.0004, "leaf0": 0.0002,
             "spine1": -0.0003}

    def _run(self):
        net = build_leaf_spine(2, 2, 2)
        decoders = instrument(net, alpha_ms=self.ALPHA, epsilon_ms=self.EPS,
                              delta_ms=self.DELTA,
                              skew=lambda n: self.SKEWS.get(n, 0.0))
        seen = []
        for host in net.hosts.values():
            host.sniffers.append(
                lambda h, p, now: seen.append(
                    (h.name, p.flow, p.size, p.telemetry.link_id,
                     p.telemetry.epoch_tag, now)))
        # several ports per source so ECMP puts both on both spines
        flows = [(src, "h1_0", sport) for src in ("h0_0", "h0_1")
                 for sport in range(1, 5)]
        flows += [("h1_1", "h0_0", 5), ("h1_1", "h1_0", 6)]
        # epochs 4093..4098 at α = 10 ms: the tag wraps at 40.96 s
        times = [40.930 + 0.0013 * i for i in range(40)] + [40.9595]
        for i, when in enumerate(times):
            for src, dst, sport in flows:
                net.sim.schedule_at(
                    when, lambda s=src, d=dst, sp=sport, n=100 + i:
                    net.hosts[s].send(make_udp(s, d, sp, 9, n)))
        net.run()
        return net, decoders, seen

    def _reference(self, net, decoders, seen):
        estimator = EpochRangeEstimator(self.ALPHA, self.EPS, self.DELTA)
        want = {}
        wrapped = 0
        for host, flow, size, link_id, epoch_tag, now in seen:
            link = net.link_by_vlan(link_id)
            path = net.path_through_link(flow.src, flow.dst, link)
            switches = [n for n in path if n in net.switches]
            embedder = next(a for a, b in zip(path, path[1:])
                            if {a, b} == {link.a.name, link.b.name})
            reference = decoders[host].host_clock.epoch_of(now)
            observed = unwrap_epoch(epoch_tag, reference)
            wrapped += reference // 4096 != observed // 4096
            ranges = ranges_of(switches, estimator.offsets(
                len(switches), switches.index(embedder)), observed)
            rec = want.setdefault((host, flow), {
                "switch_path": switches, "epoch_ranges": {},
                "bytes_by_epoch": {}, "packets": 0, "bytes": 0})
            rec["switch_path"] = tuple(switches)
            for sw, rng in ranges.items():
                lo, hi = rec["epoch_ranges"].get(sw, (rng.lo, rng.hi))
                rec["epoch_ranges"][sw] = (min(lo, rng.lo),
                                           max(hi, rng.hi))
            rec["bytes_by_epoch"][observed] = (
                rec["bytes_by_epoch"].get(observed, 0) + size)
            rec["packets"] += 1
            rec["bytes"] += size
        return want, wrapped

    def test_records_equal_the_per_packet_reference(self):
        net, decoders, seen = self._run()
        want, wrapped = self._reference(net, decoders, seen)
        assert len(seen) == 41 * 10 and wrapped > 0
        assert {tag for *_, tag, _now in seen} >= {4095, 0}
        got = {(host, rec.flow): {
                   "switch_path": rec.switch_path,
                   "epoch_ranges": rec.epoch_ranges,
                   "bytes_by_epoch": rec.bytes_by_epoch,
                   "packets": rec.packets, "bytes": rec.bytes}
               for host, dec in decoders.items() for rec in dec.store}
        assert got == want
        # both spines carried traffic, so several paths share each plan
        assert len({tuple(r["switch_path"]) for r in got.values()}) >= 4

    def test_records_over_one_plan_share_its_tuples(self):
        net, decoders, _seen = self._run()
        store = decoders["h1_0"].store
        # two source hosts behind leaf0, one plan, the same spine
        first, second = next(
            (a, b) for a in store for b in store
            if a.flow.src != b.flow.src and a.switch_path == b.switch_path)
        # the plan's path and the estimator's offsets, not copies
        assert first.switch_path is second.switch_path
        assert first._shape is second._shape
        path = second.switch_path
        ranges = second.epoch_ranges
        # a view is the reader's own dict
        view = first.epoch_ranges
        view["mutated"] = (0, 0)
        del view[path[0]]
        assert list(first.epoch_ranges) == list(path)
        assert second.epoch_ranges == ranges
        # nor did the mutation reach what the decoder hands the next flow
        now = net.sim.now
        net.hosts[first.flow.src].send(
            make_udp(first.flow.src, "h1_0", first.flow.sport, 77, 64))
        net.run()
        fresh = next(rec for rec in store if rec.flow.dport == 77)
        assert net.sim.now > now and fresh.switch_path == path
        assert set(fresh.epoch_ranges) == set(path)
