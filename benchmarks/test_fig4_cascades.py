"""Fig 4 — traffic cascades: with vs without the chain of delays.

Paper: B→D (high, UDP, 10 ms) and A→F (middle, UDP, 10 ms) share S1;
C→E (low, TCP, 2 MB) enters at S2.  Without contention at S1 (B→D on a
different path) A→F drains on time and C→E runs clean; with contention
A→F is delayed and collides with C→E at S2 (Fig 4(b)).

Shape checks: the cascade delays A→F's delivery tail and C→E's
completion; without the cascade C→E's throughput during its first
milliseconds is strictly higher.
"""

import pytest

from repro.scenarios import run_scenario

from benchmarks.reporting import emit, fmt_series


@pytest.mark.benchmark(group="fig4")
def test_fig4_cascades(benchmark):
    def run_both():
        return tuple(run_scenario("cascades", with_diagnosis=False,
                                  cascaded=cascaded).payload
                     for cascaded in (False, True))

    base, casc = benchmark.pedantic(run_both, rounds=1, iterations=1)

    lines = []
    for label, res in (("WITHOUT cascade (Fig 4a)", base),
                       ("WITH cascade (Fig 4b)", casc)):
        lines.append(f"--- {label} ---")
        lines.append("flow B-D throughput (first 25 ms):")
        lines += fmt_series([(t, g) for t, g in res.tput_bd.series()
                             if t <= 0.025], every=2)
        lines.append("flow A-F throughput (first 25 ms):")
        lines += fmt_series([(t, g) for t, g in res.tput_af.series()
                             if t <= 0.025], every=2)
        lines.append("flow C-E throughput (first 40 ms):")
        lines += fmt_series([(t, g) for t, g in res.tput_ce.series()
                             if t <= 0.040], every=4)
        done = res.ce_completed_at
        lines.append(f"C-E (2 MB TCP) completed at: "
                     f"{done * 1000:.1f} ms" if done else
                     "C-E did not complete")
        lines.append("")
    emit("fig4_cascades", lines)

    assert base.ce_completed_at is not None
    assert casc.ce_completed_at is not None
    # the cascade visibly delays the low-priority victim
    assert casc.ce_completed_at > base.ce_completed_at + 0.004
    # A-F's delivery stretches out when it loses at S1
    af_tail_base = max(t for t, g in base.tput_af.series() if g > 0)
    af_tail_casc = max(t for t, g in casc.tput_af.series() if g > 0)
    assert af_tail_casc > af_tail_base + 0.004
    # early C-E throughput is higher without the cascade
    def early_rate(res):
        xs = [g for t, g in res.tput_ce.series()
              if 0.013 <= t <= 0.020]
        return sum(xs) / len(xs)
    assert early_rate(base) > early_rate(casc)
