"""Fig 8 — latency for diagnosing load imbalance.

Paper: a malfunctioning switch splits flows by size (<1 MB vs >=1 MB)
across two egress interfaces; the analyzer fetches the recent pointer,
queries the implicated servers for per-egress flow-size distributions,
and finds the clean separation.  Diagnosis time grows ~linearly from 4
to 96 servers (tens of ms up to ~400 ms).

Shape checks: verdict is 'imbalanced' at every n; latency monotone and
~linear in n; the 96-server point lands in the paper's few-hundred-ms
band.
"""

import pytest

from repro.scenarios import run_scenario

from benchmarks.reporting import emit

SERVER_COUNTS = [4, 8, 16, 32, 64, 96]


def run_sweep():
    rows = {}
    for n in SERVER_COUNTS:
        rows[n], = run_scenario("load-imbalance", n_servers=n).verdicts
    return rows


@pytest.mark.benchmark(group="fig8")
def test_fig8_diagnosis_latency(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = ["servers  diagnosis_ms  imbalanced  hosts_consulted"]
    for n in SERVER_COUNTS:
        v = rows[n]
        lines.append(f"  {n:5d}  {v.total_time_s * 1e3:12.1f}  "
                     f"{str(v.imbalanced):10s}  "
                     f"{len(v.hosts_consulted):5d}")
    lines.append("(paper: ~linear growth, reaching ~400 ms at 96 servers)")
    emit("fig8_load_imbalance", lines)

    times = [rows[n].total_time_s for n in SERVER_COUNTS]
    assert all(rows[n].imbalanced for n in SERVER_COUNTS)
    assert times == sorted(times), "latency must grow with server count"
    # linearity: per-server marginal cost roughly constant (3x tolerance)
    slope_lo = (times[1] - times[0]) / (SERVER_COUNTS[1]
                                        - SERVER_COUNTS[0])
    slope_hi = (times[-1] - times[-2]) / (SERVER_COUNTS[-1]
                                          - SERVER_COUNTS[-2])
    assert slope_hi < slope_lo * 3
    # paper band at 96 servers: a few hundred ms
    assert 0.15 <= times[-1] <= 0.6
