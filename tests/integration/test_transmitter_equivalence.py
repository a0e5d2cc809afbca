"""Whole-system check of the ``busy_until`` transmitter: the incast
scenario under the eager oracle (``tests/simnet/oracles.py``) and under
the runtime's transmitter must tell the same story — every counter the
simulation keeps except the event count, the simulated clock, and the
verdicts — and only ports where a packet had to wait may hold a buffer.
"""

import pytest

from repro import scenarios
from repro.core.rng import seed_run
from repro.simnet.link import Interface
from repro.simnet.topology import build_leaf_spine
from tests.simnet.oracles import EagerInterface

KNOBS = {"hosts": 64, "bg_flows": 2000, "records_per_host": 32}


def ports(network):
    out = [i for sw in network.switches.values() for i in sw.interfaces]
    return out + [h.nic for h in network.hosts.values() if h.nic is not None]


def story(result):
    """Every simulated count of one run but ``events_processed``."""
    net, dep = result.network, result.deployment
    switches = list(net.switches.values())
    # max_depth_bytes is a gauge the same-instant rule may lower by one
    # packet (the departure leaves before the arrival is counted)
    totals = ("enqueued", "dequeued", "dropped", "bytes_enqueued",
              "bytes_dropped")
    return {
        "sim_time": result.sim_time,
        "switches": sorted((sw.name, sw.rx_packets, sw.forwarded,
                            sw.no_route_drops, sw.gray_drops)
                           for sw in switches),
        "ports": sorted((i.name, i.tx_packets, i.tx_bytes,
                         i.dropped_link_down,
                         *(getattr(i.queue, c) for c in totals))
                        for i in ports(net)),
        "delivered": sorted((h.name, h.rx_packets)
                            for h in net.hosts.values()),
        "datapath": sum(dp.packets_processed
                        for dp in dep.datapaths.values()),
        "decoded": sum(a.decoder.decoded for a in dep.host_agents.values()),
        "records": dep.record_stats(),
        "alerts": len(dep.analyzer.alerts),
        "pointer_bits": dep.total_pointer_memory_bits(),
        "switch_stats": sorted((name, vars(st)) for name, st
                               in result.switch_stats.items()),
        "verdicts": [(v.problem, v.suspect, v.status, v.hosts_consulted,
                      v.total_time_s) for v in result.verdicts],
    }


def run(seed):
    seed_run(seed)
    return scenarios.run_scenario("incast", **KNOBS)


def record_waits(patch):
    """Patch ``Interface.send`` to collect the ports where an admitted
    packet found the transmitter busy or a packet already waiting."""
    waited = set()
    send = Interface.send

    def recording_send(iface, pkt):
        queue = iface.queue
        busy = iface.sim.now < iface.busy_until or queue.depth_bytes > 0
        admitted_before = queue.enqueued
        accepted = send(iface, pkt)
        if busy and queue.enqueued > admitted_before:
            waited.add(iface)
        return accepted

    patch.setattr(Interface, "send", recording_send)
    return waited


@pytest.mark.parametrize("seed", [1729, 1730, 1731, 1732, 1733])
def test_incast_tells_the_same_story_under_both_transmitters(seed,
                                                             monkeypatch):
    with monkeypatch.context() as patch:
        waited = record_waits(patch)
        new = run(seed)
    with monkeypatch.context() as patch:
        patch.setattr("repro.simnet.link.Interface", EagerInterface)
        old = run(seed)
    assert type(old.network.links[0].iface_a) is EagerInterface
    assert story(new) == story(old)
    assert [v.problem for v in new.verdicts] == ["incast"]
    # the declared change: fewer events, nothing else
    assert (new.network.sim.events_processed
            < 0.75 * old.network.sim.events_processed)
    # a buffer exists exactly where a packet had to wait, so a port
    # whose packets all found it free holds none
    for iface in ports(new.network):
        assert (iface.queue._q is not None) == (iface in waited)
        assert not iface._armed
    buffers = sum(i.queue._q is not None for i in ports(new.network))
    carried = sum(i.tx_packets > 0 for i in ports(new.network))
    assert 0 < buffers < carried


def test_a_built_fabric_holds_no_buffers():
    net = build_leaf_spine(64, 16, 256)
    assert len(ports(net)) == 2 * (64 * 256 + 64 * 16)
    assert all(iface.queue._q is None for iface in ports(net))
