"""Property-based system tests: directory soundness end to end.

The directory-service invariant that makes SwitchPointer correct (§3):
for any workload, if a host received a packet that traversed switch S in
S's epoch e, then S's pointer for a retained window containing e MUST
include that host (no false negatives — debugging never misses a
relevant host).  We drive random workloads through a real deployment and
check the invariant against ground truth."""

from hypothesis import given, settings, strategies as st

from repro import SwitchPointerDeployment
from repro.core.epoch import EpochRange
from repro.simnet.packet import make_udp
from repro.simnet.topology import build_linear
from tests.simnet.trajectory import Trajectories


@st.composite
def workload(draw):
    """(src_idx, dst_idx, send_time_ms) triples on a 2x4 dumbbell."""
    sends = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=60)),
        min_size=1, max_size=30))
    return sends


@settings(max_examples=25, deadline=None)
@given(sends=workload())
def test_pointer_never_misses_a_relevant_host(sends):
    net = build_linear(2, 4)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                     epsilon_ms=1, delta_ms=2)
    trail = Trajectories(net)  # ground truth: each packet's switches

    def tracked_send(src, dst):
        pkt = make_udp(src, dst, 1, 9, 300)
        net.hosts[src].send(pkt)
        return pkt

    pkts = []
    for s, d, t_ms in sends:
        src, dst = f"h1_{s}", f"h2_{d}"
        net.sim.schedule_at(
            t_ms / 1000.0,
            lambda src=src, dst=dst: pkts.append(tracked_send(src, dst)))
    net.run()

    for pkt in pkts:
        for sw in trail.of(pkt):
            clock = deploy.datapaths[sw].clock
            epoch = clock.epoch_of(pkt.created_at)  # ~zero path delay
            # epoch may straddle a boundary due to in-network delay;
            # query a 1-epoch pad
            hosts = deploy.analyzer.hosts_for(
                sw, EpochRange(epoch, epoch + 1))
            assert pkt.flow.dst in hosts, (sw, epoch, pkt.flow.dst, hosts)


@settings(max_examples=15, deadline=None)
@given(sends=workload())
def test_decoded_records_match_ground_truth_paths(sends):
    net = build_linear(2, 4)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                     epsilon_ms=1, delta_ms=2)
    for s, d, t_ms in sends:
        src, dst = f"h1_{s}", f"h2_{d}"
        net.sim.schedule_at(
            t_ms / 1000.0,
            lambda src=src, dst=dst: net.hosts[src].send(
                make_udp(src, dst, 1, 9, 300)))
    net.run()
    for name, agent in deploy.host_agents.built.items():
        for rec in agent.store:
            assert rec.flow.dst == name
            assert rec.switch_path == ["S1", "S2"]
            # decoder can never invent epochs the estimator disallows
            for sw in rec.switch_path:
                assert rec.epochs_at(sw) is not None
