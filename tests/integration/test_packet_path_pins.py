"""Per-packet counts of three runs, pinned.

Every layer a packet crosses keeps a count: the simulator its events,
each switch what it forwarded, each port's queue what it admitted and
dropped, each host what it received, each decoder what it could read,
each record store what it ingested and evicted, each datapath what it
processed and tagged, each pointer store its updates.  A change to the
per-packet path that keeps the simulation's story must keep every one
of them — and every record's contents, pinned here as one digest of all
stores' records in creation order.

The three runs cover an incast whose small tables evict on most new
flows, strict-priority contention under TCP, and a flapping link that
reroutes flows.
"""

import hashlib

import pytest

from repro import scenarios
from repro.core.rng import seed_run
from repro.simnet.queues import PacketQueue

SEED = 1729

RUNS = {
    "incast": ("incast", {"hosts": 64, "bg_flows": 2000, "bg_flow_kb": 4,
                          "records_per_host": 8}),
    "contention": ("contention",
                   scenarios.REGISTRY.get("contention").spec.smoke_knobs),
    "link-flap": ("link-flap",
                  scenarios.REGISTRY.get("link-flap").spec.smoke_knobs),
}


def records_digest(deployment):
    """blake2b over every store's records, hosts by name, records in
    creation order."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(deployment.host_agents):
        for rec in deployment.host_agents[name].store:
            h.update(repr((
                name, tuple(rec.flow), rec.packets, rec.bytes,
                tuple(rec.switch_path),
                tuple((sw, lo, hi)
                      for sw, (lo, hi) in rec.epoch_ranges.items()),
                tuple(rec.bytes_by_epoch.items()),
                rec.first_seen, rec.last_seen)).encode())
    return h.hexdigest()


def pins(result):
    net, dep = result.network, result.deployment
    ports = [i for sw in net.switches.values() for i in sw.interfaces]
    ports += [h.nic for h in net.hosts.values() if h.nic is not None]
    agents = list(dep.host_agents.values())
    datapaths = list(dep.datapaths.values())
    return {
        "events_processed": net.sim.events_processed,
        "forwarded": {name: sw.forwarded
                      for name, sw in sorted(net.switches.items())},
        "queues": {c: sum(getattr(i.queue, c) for i in ports)
                   for c in PacketQueue.COUNTERS},
        "link_down_drops": sum(i.dropped_link_down for i in ports),
        "rx_packets": sum(h.rx_packets for h in net.hosts.values()),
        "decoded": sum(a.decoder.decoded for a in agents),
        "undecodable": sum(a.decoder.undecodable for a in agents),
        "ingested": sum(a.store.ingested for a in agents),
        "evicted": sum(a.store.evicted for a in agents),
        "peak_records": max(a.store.peak_records for a in agents),
        "packets_processed": sum(dp.packets_processed for dp in datapaths),
        "tags_embedded": sum(dp.tags_embedded for dp in datapaths),
        "pointer_updates": sum(dp.store.updates for dp in datapaths),
        "records": records_digest(dep),
    }


#: taken at the commit before the per-packet path was reworked
EXPECTED = {
    "contention": {
        "events_processed": 20807,
        "forwarded": {
            "S1": 4988,
            "S2": 4988,
        },
        "queues": {
            "enqueued": 14964,
            "dequeued": 14964,
            "dropped": 0,
            "bytes_enqueued": 12078180,
            "bytes_dropped": 0,
            "max_depth_bytes": 312198,
        },
        "link_down_drops": 0,
        "rx_packets": 4988,
        "decoded": 4988,
        "undecodable": 0,
        "ingested": 4988,
        "evicted": 0,
        "peak_records": 1,
        "packets_processed": 9976,
        "tags_embedded": 4988,
        "pointer_updates": 9976,
        "records": "a54252457128095319ef46e6e81bb46d",
    },
    "incast": {
        "events_processed": 59445,
        "forwarded": {
            "leaf0": 9856,
            "leaf1": 11189,
            "spine0": 1899,
            "spine1": 6524,
        },
        "queues": {
            "enqueued": 41088,
            "dequeued": 41088,
            "dropped": 1002,
            "bytes_enqueued": 38024307,
            "bytes_dropped": 1468213,
            "max_depth_bytes": 1040493,
        },
        "link_down_drops": 0,
        "rx_packets": 11620,
        "decoded": 11620,
        "undecodable": 0,
        "ingested": 11620,
        "evicted": 1550,
        "peak_records": 9,
        "packets_processed": 29468,
        "tags_embedded": 12622,
        "pointer_updates": 29468,
        "records": "7748054dddd8cfacccf161f714bbac99",
    },
    "link-flap": {
        "events_processed": 15760,
        "forwarded": {
            "S1": 3226,
            "S2": 3102,
            "SPA": 1481,
            "SPB": 1621,
        },
        "queues": {
            "enqueued": 12532,
            "dequeued": 12532,
            "dropped": 0,
            "bytes_enqueued": 10224776,
            "bytes_dropped": 0,
            "max_depth_bytes": 109264,
        },
        "link_down_drops": 124,
        "rx_packets": 3102,
        "decoded": 3102,
        "undecodable": 0,
        "ingested": 3102,
        "evicted": 0,
        "peak_records": 1,
        "packets_processed": 9430,
        "tags_embedded": 3226,
        "pointer_updates": 9430,
        "records": "543589d2f3b1c6e839968a59494aa2eb",
    },
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_per_packet_counts_are_pinned(run):
    name, knobs = RUNS[run]
    seed_run(SEED)
    result = scenarios.run_scenario(name, **knobs)
    assert pins(result) == EXPECTED[run]
