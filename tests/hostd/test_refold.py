"""The host folds a repeated header without parsing it again.

``FlowRecordStore.refold`` folds a packet whose flow's record folded the
same tag object last, in the same host epoch and topology version.  These
tests pin that the fold happens (``_parse_vlan`` runs less often than
packets are decoded) and that whole scenario runs leave every record
table exactly as the decoder that parses every packet
(``tests/hostd/decode_oracle.py``) does.
"""

import pytest

from repro import SwitchPointerDeployment
from repro.core.rng import seed_run
from repro.hostd.decoder import TelemetryDecoder
from repro.scenarios import REGISTRY
from repro.simnet.packet import make_udp
from repro.simnet.topology import build_linear
from tests.hostd.decode_oracle import parse_every_packet, store_state


def test_a_flow_repeating_its_tag_is_parsed_once(monkeypatch):
    calls = []
    parse = TelemetryDecoder._parse_vlan

    def counted(self, pkt, tag, reference):
        calls.append(pkt.flow)
        return parse(self, pkt, tag, reference)

    monkeypatch.setattr(TelemetryDecoder, "_parse_vlan", counted)
    net = build_linear(2, 1)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=2)
    for i in range(20):  # 20 packets inside one 10 ms epoch
        net.sim.schedule_at(i * 1e-4, lambda: net.hosts["h1_0"].send(
            make_udp("h1_0", "h2_0", 1, 9, 500)))
    net.run()
    decoder = deploy.host_agents["h2_0"].decoder
    rec = next(iter(decoder.store))
    assert decoder.decoded == rec.packets == 20
    assert rec.bytes == sum(rec.bytes_by_epoch.values()) == 20 * 500
    assert len(calls) == 1 < decoder.decoded


RUNS = [
    ("incast", {"hosts": 64, "bg_flows": 300, "records_per_host": 4}),
    ("gray-failure", {"n_flows": 8, "bg_flows": 50}),
    ("multi-fault", {}),
    ("link-flap", {}),
]


def tables(name, knobs):
    seed_run(1729)
    result = REGISTRY.get(name)(**knobs).execute(with_diagnosis=False)
    return {host: (store_state(agent.store), agent.decoder.decoded,
                   agent.decoder.undecodable)
            for host, agent in result.deployment.host_agents.items()}


@pytest.mark.parametrize("name, knobs", RUNS)
def test_scenario_tables_equal_a_parse_of_every_packet(name, knobs,
                                                       monkeypatch):
    folded = tables(name, knobs)
    monkeypatch.setattr(TelemetryDecoder, "on_packet", parse_every_packet)
    parsed = tables(name, knobs)
    assert sum(ingested for (ingested, *_), _, _ in folded.values()) > 0
    assert folded == parsed
