"""Ingestion at the host agent: every sniffed packet is decoded into its
record update when it arrives, so nothing is left for a later read to
catch up on and the record-table bound holds at every instant."""

from repro.core.epoch import EpochRange
from repro.core.rng import seed_run
from repro.deployment import SwitchPointerDeployment
from repro.experiment import EXPERIMENTS
from repro.hostd.records import FlowRecordStore
from repro.scenarios import run_scenario
from repro.simnet.packet import PRIO_LOW
from repro.simnet.topology import build_linear
from repro.simnet.traffic import UdpCbrSource, UdpSink


def run_deployment(before_run=None):
    """Two CBR flows h1_i → h3_i across a 3-switch line."""
    net = build_linear(3, hosts_per_switch=2)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
    sinks = {}
    for i in range(2):
        sinks[f"h3_{i}"] = UdpSink(net.hosts[f"h3_{i}"], 9000 + i)
        UdpCbrSource(net.sim, net.hosts[f"h1_{i}"], f"h3_{i}",
                     sport=9000 + i, dport=9000 + i, rate_bps=20e6,
                     packet_size=500, priority=PRIO_LOW, start=0.001,
                     duration=0.030)
    if before_run is not None:
        before_run(net, deploy)
    net.run(until=0.040)
    return net, deploy, sinks


def assert_all_decoded_within_bound(result, bound):
    for name, agent in result.deployment.host_agents.built.items():
        decoder = agent.decoder
        assert (decoder.decoded + decoder.undecodable
                == result.network.hosts[name].rx_packets), name
        assert agent.store.peak_records <= bound + 1, name


def test_default_store_is_flat_and_unbounded():
    _, deploy, _ = run_deployment()
    for agent in deploy.host_agents.values():
        assert isinstance(agent.store, FlowRecordStore)
        assert agent.store.max_records is None


class TestDecodeOnArrival:
    def test_records_match_what_each_sink_received(self):
        _, deploy, sinks = run_deployment()
        for name, sink in sinks.items():
            (rec,) = list(deploy.host_agents[name].store)
            assert sink.packets > 0
            assert (rec.packets, rec.bytes) == (sink.packets, sink.bytes)

    def test_record_counts_each_packet_at_its_arrival(self):
        """A sniffer attached after the agent's sees, at every arrival,
        a record that already counts the packet it is handed."""
        lag = []

        def watch(net, deploy):
            store = deploy.host_agents["h3_0"].store
            seen = [0]

            def sniff(_host, pkt, _now):
                seen[0] += 1
                lag.append(store.get(pkt.flow).packets - seen[0])

            net.hosts["h3_0"].sniffers.append(sniff)

        run_deployment(watch)
        assert lag and set(lag) == {0}

    def test_decoder_accounts_for_every_received_packet(self):
        net, deploy, sinks = run_deployment()
        for name, agent in deploy.host_agents.built.items():
            decoder = agent.decoder
            assert (decoder.decoded + decoder.undecodable
                    == net.hosts[name].rx_packets), name
        for name, sink in sinks.items():
            assert deploy.host_agents[name].decoder.decoded == sink.packets

    def test_first_query_returns_every_flow_delivered(self):
        _, deploy, _ = run_deployment()
        agent = deploy.host_agents["h3_0"]
        res = agent.query.flows_matching("S1", EpochRange(0, 100))
        assert res.records_returned == 1
        assert agent.query.queries_served == 1

    def test_record_stats_reads_without_decoding(self):
        _, deploy, sinks = run_deployment()
        decoded = {name: agent.decoder.decoded
                   for name, agent in deploy.host_agents.built.items()}
        stats = deploy.record_stats()
        assert deploy.record_stats() == stats
        assert {name: agent.decoder.decoded for name, agent
                in deploy.host_agents.built.items()} == decoded
        assert stats["total_records"] == len(sinks)
        assert stats["ingested_records"] == sum(decoded.values())

    def test_crashed_agent_decodes_nothing_until_restart(self):
        def crash_window(net, deploy):
            agent = deploy.host_agents["h3_0"]
            net.sim.schedule(0.010, agent.crash)
            net.sim.schedule(0.020, agent.restart)

        net, deploy, sinks = run_deployment(crash_window)
        agent = deploy.host_agents["h3_0"]
        (rec,) = list(agent.store)
        # the table holds only what arrived after the restart, yet every
        # packet reached the socket
        assert 0 < rec.packets < sinks["h3_0"].packets
        assert agent.decoder.decoded < net.hosts["h3_0"].rx_packets


def test_incast_sweep_cell_decodes_every_packet_within_the_bound():
    """The nightly incast cell with a 4-record bound: when the run
    returns, every packet a host received has been decoded, and no
    table ever held more than one record over its bound."""
    knobs = EXPERIMENTS.get("incast").knobs_for(
        {"hosts": 64, "records_per_host": 4})
    seed_run(1729)
    result = run_scenario("incast", **knobs)
    assert_all_decoded_within_bound(result, knobs["records_per_host"])


def test_gray_failure_sweep_cell_decodes_every_packet_within_the_bound():
    """The nightly gray-failure cell with background load, bounded."""
    knobs = EXPERIMENTS.get("gray-failure").knobs_for(
        {"bg_flows": 200, "n_flows": 4, "records_per_host": 4})
    seed_run(1729)
    result = run_scenario("gray-failure", **knobs)
    assert result.verdicts
    assert {(v.problem, v.suspect) for v in result.verdicts} == {
        ("gray-failure", "S3")}
    assert_all_decoded_within_bound(result, knobs["records_per_host"])
