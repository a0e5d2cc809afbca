"""Fig 3 — "too many red lights": cumulative degradation across hops.

Paper: TCP A→F crosses S1, S2, S3; 400 µs high-priority UDP bursts hit
S1 then S2 back to back.  Throughput measured *at S1* dips to ~600 Mbps
and *at S2* to ~200 Mbps — the victim pays at each red light in turn.

Shape checks: both taps dip during the burst window; the S2 dip is at
least as deep as the S1 dip; recovery afterwards.
"""

import pytest

from repro.scenarios import run_scenario

from benchmarks.reporting import emit, fmt_series


@pytest.mark.benchmark(group="fig3")
def test_fig3_red_lights(benchmark):
    res = benchmark.pedantic(run_scenario, args=("red-lights",),
                             kwargs={"with_diagnosis": False}, rounds=1,
                             iterations=1).payload
    window_lo = res.burst1[0] - 0.001
    window_hi = res.burst2[0] + res.burst2[1] + 0.002

    def dip(probe):
        return min(g for t, g in probe.series()
                   if window_lo <= t <= window_hi)

    s1_dip, s2_dip = dip(res.tput_at_s1), dip(res.tput_at_s2)

    lines = ["victim flow A->F throughput at S1 egress:"]
    lines += fmt_series([(t, g) for t, g in res.tput_at_s1.series()
                         if t <= 0.010])
    lines.append("victim flow A->F throughput at S2 egress:")
    lines += fmt_series([(t, g) for t, g in res.tput_at_s2.series()
                         if t <= 0.010])
    lines.append(f"min during bursts: at S1 {s1_dip:.3f} Gbps, "
                 f"at S2 {s2_dip:.3f} Gbps")
    lines.append("(paper: ~0.6 Gbps at S1 vs ~0.2 Gbps at S2 — "
                 "degradation accumulates across red lights)")
    emit("fig3_red_lights", lines)

    assert s1_dip < 0.7          # first red light visibly hurts
    assert s2_dip <= s1_dip      # second hop strictly worse (cumulative)
    # recovery: post-burst the flow returns to near line rate
    tail = [g for t, g in res.tput_at_s2.series()
            if window_hi + 0.001 <= t <= window_hi + 0.003]
    assert max(tail) > 0.9
