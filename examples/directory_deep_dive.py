#!/usr/bin/env python3
"""Deep dive into the directory service: MPHF, hierarchy, push/pull.

Walks the §4.1 machinery directly — the data structures, no traffic —
and prints the resource arithmetic of Figs 10/11 for your own
parameters.  Then runs one gray failure under every directory backend
and prints the switches each one ranks as co-suspects of the culprit.

Run:  python examples/directory_deep_dive.py [n_hosts] [alpha] [k]
"""

import sys

from repro.core import (HierarchicalPointerStore, HostDirectory,
                        push_bandwidth_bps, recycling_period_ms,
                        total_switch_memory_bytes)
from repro.directory import DIRECTORIES
from repro.scenarios import run_scenario
from repro.switchd import SwitchAgent


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    alpha = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    k = int(sys.argv[3]) if len(sys.argv) > 3 else 3

    print(f"building directory over {n} hosts "
          f"(alpha={alpha} ms, k={k})...")
    hosts = [f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}"
             for i in range(n)]
    directory = HostDirectory(hosts)
    mphf = directory.mphf
    print(f"  MPHF: {mphf.bits_per_key():.2f} bits/key switch-side "
          f"state, minimal+perfect over [0, {mphf.n})")

    # one switch's hierarchy; its agent keeps the pushed history
    store = HierarchicalPointerStore(n, alpha=alpha, k=k)
    agent = SwitchAgent("S1", store)
    print(f"  hierarchy: {store.total_pointer_sets} pointer sets, "
          f"{store.memory_bits / 8 / 1024:.1f} KiB of pointer bits")
    for level in range(1, k + 1):
        print(f"    level {level}: one set spans "
              f"{store.window_ms(level):.0f} ms"
              + ("" if level == k else f", recycled after "
                 f"{recycling_period_ms(alpha, level):.0f} ms idle"))

    # simulate two top-level windows of updates
    epochs = 2 * alpha ** (k - 1) + 1
    print(f"\nsimulating {epochs} epochs of forwarding "
          f"({epochs * alpha} ms)...")
    for e in range(epochs):
        slot = directory.slot_of(hosts[e % n])
        store.update(e, slot)
    print(f"  pushes to control plane: {len(agent.pushed_history)} "
          f"(one per alpha^k = {alpha ** k} ms)")
    print(f"  push bandwidth at this n: "
          f"{push_bandwidth_bps(n, alpha, k) / 1e6:.3f} Mbps")
    print(f"  total switch memory (pointers + MPHF): "
          f"{total_switch_memory_bytes(n, alpha, k) / 1e6:.3f} MB")

    # the read: the finest level still holding the window answers
    def read(lo: int, hi: int) -> None:
        snaps, source = agent.best_effort_snapshots(lo, hi)
        slots = sorted({s for snap in snaps for s in snap.slots()})
        print(f"  epochs {lo}..{hi} from {source}: {len(slots)} hosts; "
              f"first few: {directory.hosts_of(slots[:5])}")

    last = epochs - 1
    print("\npull examples:")
    read(last - 2, last)
    # older epochs have been recycled at level 1, so a coarser level or
    # the pushed top-level history (the offline path) answers instead
    read(3, 5)

    # the similarity query: which switches saw the hosts the culprit saw?
    # exact and bloom answer it from decoded slots, lsh from its minhash
    # signatures without decoding a bit
    print("\nco-suspects of a gray failure, per directory backend:")
    for backend in DIRECTORIES.names():
        verdict = run_scenario("gray-failure",
                               directory_backend=backend).verdicts[0]
        print(f"  {backend:6s} suspect {verdict.suspect}; co-suspects: "
              f"{', '.join(verdict.co_suspects) or '-'}")


if __name__ == "__main__":
    main()
