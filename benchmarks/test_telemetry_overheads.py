"""Header-tax and simulator-throughput ablations (§4.1.3 context).

Not a paper figure, but the quantitative backdrop of the paper's
commodity design: the VLAN double tag costs a constant 8 B per packet
regardless of path length, because CherryPick lets one link stand for
the whole path.

Also benchmarks the raw simulator event rate (events/s) so regressions
in the substrate are visible.
"""

import pytest

from repro.core.headers import VLAN_TAG_BYTES
from repro.simnet.packet import make_udp
from repro.simnet.topology import build_fat_tree

from benchmarks.reporting import emit


@pytest.mark.benchmark(group="telemetry")
def test_per_packet_wire_overhead_fraction(benchmark):
    """Relative header tax at the paper's packet sizes."""
    def measure():
        vlan = 2 * VLAN_TAG_BYTES  # two 802.1Q tags
        return {size: vlan / size for size in (64, 256, 850, 1500)}

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["pkt_size  vlan_tax"]
    for size, v in rows.items():
        lines.append(f"  {size:6d}  {v:7.1%}")
    emit("telemetry_tax_fraction", lines)
    # at the datacenter mean (~850 B) the VLAN tax is ~1%
    assert rows[850] < 0.01


@pytest.mark.benchmark(group="telemetry")
def test_simulator_event_rate_fat_tree(benchmark):
    """Substrate health: events/s while flooding a k=4 fat-tree."""
    def run():
        net = build_fat_tree(4)
        hosts = net.host_names
        for i, src in enumerate(hosts):
            dst = hosts[(i + 5) % len(hosts)]
            for p in range(20):
                net.hosts[src].send(make_udp(src, dst, p, 9, 700))
        net.run()
        return net.sim.events_processed

    events = benchmark(run)
    assert events > 1000


@pytest.mark.benchmark(group="telemetry")
def test_instrumentation_overhead_on_simulation(benchmark):
    """How much the SwitchPointer hooks slow the *simulator* — the cost
    of observing, not a paper claim; useful for sizing experiments."""
    import time
    from repro import SwitchPointerDeployment

    def run_once(instrument: bool):
        net = build_fat_tree(4)
        if instrument:
            SwitchPointerDeployment(net, alpha_ms=10, k=3,
                                    epsilon_ms=1, delta_ms=2)
        hosts = net.host_names
        for i, src in enumerate(hosts):
            dst = hosts[(i + 3) % len(hosts)]
            for p in range(10):
                net.hosts[src].send(make_udp(src, dst, p, 9, 700))
        t0 = time.perf_counter()
        net.run()
        return time.perf_counter() - t0

    def measure():
        bare = min(run_once(False) for _ in range(3))
        full = min(run_once(True) for _ in range(3))
        return bare, full

    bare, full = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("instrumentation_overhead", [
        f"bare simulation:        {bare * 1e3:.1f} ms",
        f"with SwitchPointer:     {full * 1e3:.1f} ms",
        f"observation overhead:   {full / bare:.2f}x",
    ])
    assert full < bare * 25  # sane bound; typically ~2-5x
