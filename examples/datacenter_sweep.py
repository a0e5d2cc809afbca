#!/usr/bin/env python3
"""Fabric-scale exercise: background workload + the §2.4 extended apps.

Runs a heavy-tailed synthetic workload over a leaf-spine fabric with
SwitchPointer deployed, then:

1. audits every recorded trajectory for path conformance,
2. injects a blackhole and localizes it from the pointer directory,
3. reports directory statistics (hosts per pointer — the §3 tradeoff).

Run:  python examples/datacenter_sweep.py
"""

from repro import SwitchPointerDeployment
from repro.analyzer import check_path_conformance, localize_packet_drops
from repro.core.epoch import EpochRange
from repro.simnet import (WorkloadGenerator, WorkloadSpec,
                          build_leaf_spine, make_udp)
from repro.simnet.packet import FlowKey, PROTO_UDP


def main() -> None:
    net = build_leaf_spine(n_leaves=3, n_spines=2, hosts_per_leaf=4,
                           rate_bps=10e9)
    deploy = SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                     epsilon_ms=1, delta_ms=2)

    spec = WorkloadSpec(arrival_rate_per_s=3000, duration_s=0.05,
                        mean_flow_bytes=50_000, flow_rate_bps=2e9,
                        seed=20260612)
    gen = WorkloadGenerator(net, spec)
    gen.launch()
    print(f"workload: {len(gen.flows)} flows over {len(net.hosts)} hosts, "
          f"p50/p99 sizes {gen.size_percentiles((50, 99))}, "
          f"elephant (>=100 KB) byte share "
          f"{gen.elephant_byte_share(100_000):.0%}")
    net.run(until=0.2)

    # 1. conformance audit over every record in the fabric
    report = check_path_conformance(deploy.analyzer)
    print(f"\nconformance: {report.flows_checked} trajectories checked, "
          f"{len(report.violations)} violations "
          f"({report.breakdown.total * 1e3:.0f} ms)")

    # 2. blackhole injection + localization
    src, dst = "h0_0", "h2_1"
    probe_flow = FlowKey(src, dst, 1, 9, PROTO_UDP)
    net.hosts[src].send(make_udp(src, dst, 1, 9, 400))
    net.run(until=net.sim.now + 0.002)
    rec = deploy.host_agents[dst].store.get(probe_flow)
    path = rec.switch_path
    victim_spine = path[1]
    print(f"\ninjecting blackhole at {victim_spine} "
          f"(flow path: {path})")
    net.switches[victim_spine].clear_routes()
    fault_epoch = deploy.datapaths[path[0]].clock.epoch_of(net.sim.now)
    for _ in range(3):
        net.hosts[src].send(make_udp(src, dst, 1, 9, 400))
        net.run(until=net.sim.now + 0.012)
    last_epoch = deploy.datapaths[path[0]].clock.epoch_of(net.sim.now)
    loc = localize_packet_drops(deploy.analyzer, probe_flow, path,
                                EpochRange(fault_epoch + 1, last_epoch))
    print(f"localization: forwarding={loc.forwarding} "
          f"silent={loc.silent}")
    print(f"suspect hop: {loc.suspect_hop} "
          f"({loc.breakdown.total * 1e3:.0f} ms of pointer pulls)")

    # 3. directory statistics under the background workload
    print("\ndirectory precision (mean hosts per level-1 pointer):")
    for name, dp in sorted(deploy.datapaths.items()):
        sizes = []
        for e in range(last_epoch + 1):
            snap = dp.store.snapshot(1, e)
            if snap is not None:
                sizes.append(len(snap.slots()))
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        print(f"  {name:8s} {mean:5.1f} of {len(net.hosts)} hosts")


if __name__ == "__main__":
    main()
