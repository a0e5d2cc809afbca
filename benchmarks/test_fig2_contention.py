"""Fig 2 — "too much traffic": priority and microburst contention.

Paper: a 100 ms low-priority TCP flow shares a trunk with UDP bursts of
m ∈ {1, 2, 4, 8, 16} flows (1 ms each).  Under strict priority (Fig 2a)
the victim starves for ~m ms and its inter-packet gaps grow to ~m ms;
at m = 16 it can hit a TCP timeout.  Under FIFO (Fig 2b) throughput
drops similarly but gap inflation is much milder.

Shape checks: starvation and max-gap grow monotonically with m under
priority; FIFO gaps ≪ priority gaps; the m = 16 run reaches ~0 Gbps.
"""

import pytest

from repro.scenarios import run_scenario

from benchmarks.reporting import emit, fmt_series

FLOW_COUNTS = [1, 2, 4, 8, 16]


def run_sweep(discipline: str) -> dict[int, dict]:
    rows = {}
    for m in FLOW_COUNTS:
        res = run_scenario("contention", with_diagnosis=False, m_flows=m,
                           discipline=discipline, duration=0.045,
                           burst_start=0.010, watch=False).payload
        rows[m] = {
            "starvation_ms": res.starvation_ms(),
            "max_gap_ms": res.max_gap_ms(),
            "timeouts": res.tcp_timeouts,
            "result": res,
        }
    return rows


@pytest.mark.benchmark(group="fig2")
def test_fig2a_priority_contention(benchmark):
    rows = benchmark.pedantic(run_sweep, args=("priority",),
                              rounds=1, iterations=1)
    lines = ["m_flows  starvation_ms  max_interarrival_ms  tcp_timeouts"]
    for m in FLOW_COUNTS:
        r = rows[m]
        lines.append(f"  {m:5d}  {r['starvation_ms']:12.1f}  "
                     f"{r['max_gap_ms']:18.2f}  {r['timeouts']:10d}")
    lines.append("")
    lines.append("victim throughput timeline, m=16 (paper: ~0 Gbps for "
                 "~10 ms):")
    series = rows[16]["result"].throughput.series(until=0.045)
    lines += fmt_series(series, every=2)
    emit("fig2a_priority_contention", lines)

    starv = [rows[m]["starvation_ms"] for m in FLOW_COUNTS]
    gaps = [rows[m]["max_gap_ms"] for m in FLOW_COUNTS]
    assert starv == sorted(starv), "starvation must grow with m"
    assert gaps == sorted(gaps), "gap inflation must grow with m"
    assert rows[16]["starvation_ms"] >= 8.0
    assert rows[16]["timeouts"] >= 1  # the paper's 'extreme' outcome


@pytest.mark.benchmark(group="fig2")
def test_fig2b_microburst_contention(benchmark):
    rows = benchmark.pedantic(run_sweep, args=("fifo",),
                              rounds=1, iterations=1)
    lines = ["m_flows  starvation_ms  max_interarrival_ms"]
    for m in FLOW_COUNTS:
        r = rows[m]
        lines.append(f"  {m:5d}  {r['starvation_ms']:12.1f}  "
                     f"{r['max_gap_ms']:18.2f}")
    emit("fig2b_microburst_contention", lines)

    # Fig 2(b)'s key contrast: equal treatment, so gaps stay far
    # smaller than the ~m ms starvation gaps of the priority case even
    # though throughput still dips (the victim shares the trunk fairly).
    assert rows[16]["max_gap_ms"] < 4.0
    assert rows[16]["max_gap_ms"] < rows[16]["starvation_ms"] + 4.0
    dips = [rows[m]["result"].throughput.rate_at(0.0105)
            for m in FLOW_COUNTS]
    assert dips[-1] < 0.9  # visible throughput dip during the burst


@pytest.mark.benchmark(group="fig2")
def test_fig2_priority_vs_fifo_gap_contrast(benchmark):
    def run_pair():
        prio, fifo = (run_scenario("contention", with_diagnosis=False,
                                   m_flows=8, discipline=discipline,
                                   duration=0.045, watch=False).payload
                      for discipline in ("priority", "fifo"))
        return prio.max_gap_ms(), fifo.max_gap_ms()

    prio_gap, fifo_gap = benchmark.pedantic(run_pair, rounds=1,
                                            iterations=1)
    emit("fig2_contrast", [
        f"m=8 priority max gap: {prio_gap:.2f} ms",
        f"m=8 FIFO     max gap: {fifo_gap:.2f} ms",
        "(paper: priority gaps ~8 ms; FIFO gaps well under 0.4 ms)"])
    assert fifo_gap < prio_gap / 4
