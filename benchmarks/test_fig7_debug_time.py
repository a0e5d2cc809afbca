"""Fig 7 — debugging time for priority-based flow contention.

Paper: the full loop — detection (<1 ms), alert to analyzer (2-3 ms),
pointer retrieval (7-8 ms per switch), diagnosis (grows with the number
of consulted hosts) — completes in under 100 ms for m ∈ {1,2,4,8,16}.

Shape checks: every phase within its paper band; diagnosis grows with
m; total < 100 ms for all m.
"""

import pytest

from repro.scenarios import run_scenario

from benchmarks.reporting import emit

FLOW_COUNTS = [1, 2, 4, 8, 16]


def run_sweep():
    rows = {}
    for m in FLOW_COUNTS:
        result = run_scenario("contention", m_flows=m, duration=0.045,
                              burst_start=0.010)
        assert result.verdicts, f"no alert for m={m}"
        rows[m] = result.verdicts[0]
    return rows


@pytest.mark.benchmark(group="fig7")
def test_fig7_debug_time_breakdown(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = ["m    detect_ms  alert_ms  pointer_ms  diagnosis_ms  "
             "total_ms  hosts  verdict"]
    for m in FLOW_COUNTS:
        v = rows[m]
        p = v.breakdown.parts
        lines.append(
            f"{m:3d}  {p['problem_detection'] * 1e3:9.2f}  "
            f"{p['alert_to_analyzer'] * 1e3:8.2f}  "
            f"{p['pointer_retrieval'] * 1e3:10.2f}  "
            f"{p['diagnosis'] * 1e3:12.2f}  "
            f"{v.total_time_s * 1e3:8.1f}  "
            f"{len(v.hosts_consulted):5d}  {v.problem}")
    lines.append("(paper: total < 100 ms; detection <1 ms; alert 2-3 ms; "
                 "~7-8 ms per pointer; diagnosis grows with hosts)")
    emit("fig7_debug_time", lines)

    for m, v in rows.items():
        parts = v.breakdown.parts
        assert v.problem == "priority-contention"
        assert v.total_time_s < 0.100, m
        assert parts["problem_detection"] <= 0.001
        assert 0.002 <= parts["alert_to_analyzer"] <= 0.003
    # diagnosis latency grows with the number of UDP flows (each to a
    # different host, so more hosts are consulted)
    diag = [rows[m].breakdown.parts["diagnosis"] for m in FLOW_COUNTS]
    assert diag[0] < diag[-1]
    hosts = [len(rows[m].hosts_consulted) for m in FLOW_COUNTS]
    assert hosts == sorted(hosts)
    assert hosts[-1] >= 16
