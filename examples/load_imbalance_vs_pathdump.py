#!/usr/bin/env python3
"""Load-imbalance diagnosis + the PathDump comparison (§5.4, Fig 8/12).

A malfunctioning switch splits flows by size across two egress
interfaces.  SwitchPointer's analyzer pulls the switch's pointer, learns
*which* servers hold relevant records, and queries only those; PathDump
must query every server in the network.  The latency gap is Fig 12.

Run:  python examples/load_imbalance_vs_pathdump.py
"""

from repro.analyzer import diagnose_load_imbalance
from repro.baselines import PathDumpAnalyzer
from repro.core.epoch import EpochRange
from repro.scenarios import run_scenario


def main() -> None:
    n_servers = 16
    res = run_scenario("load-imbalance", with_diagnosis=False,
                       n_servers=n_servers).scenario
    epochs = EpochRange(0, res.last_epoch)

    print(f"scenario: {n_servers} flows through suspect switch S1; "
          f"flows < 1 MB forced out via SPA, >= 1 MB via SPB")

    # --- SwitchPointer: directory-guided diagnosis --------------------
    verdict = diagnose_load_imbalance(
        res.deployment.analyzer, "S1", epochs=epochs)
    print(f"\nSwitchPointer verdict: imbalanced={verdict.imbalanced}")
    print(f"  {verdict.narrative}")
    for egress, sizes in sorted(verdict.distribution.items()):
        print(f"  egress {egress}: {len(sizes)} flows, "
              f"sizes {min(sizes)}-{max(sizes)} B")
    print(f"  servers consulted: {len(verdict.hosts_consulted)} "
          f"(only those in the pointer)")
    print(f"  diagnosis time: {verdict.total_time_s * 1e3:.1f} ms")

    # --- PathDump: no directory, ask everyone --------------------------
    pd = PathDumpAnalyzer(res.deployment.host_agents)
    dist, bd = pd.flow_size_distribution(switch="S1", epochs=epochs)
    print("\nPathDump (same query, no directory):")
    print(f"  servers contacted: {len(pd.all_servers)} (all of them)")
    print(f"  response time: {bd.total * 1e3:.1f} ms")
    speedup = bd.total / verdict.total_time_s
    print(f"\nSwitchPointer consulted "
          f"{len(verdict.hosts_consulted)}/{len(pd.all_servers)} servers "
          f"and answered {speedup:.1f}x faster")


if __name__ == "__main__":
    main()
