"""Gray failure — localization accuracy and pointer-pull cost.

A switch silently drops half the flows crossing a 4-switch chain.  For
every affected flow the spatial-cut localization must name the injected
switch; healthy flows must not be localized.  The per-flow diagnosis
cost is dominated by one pointer pull per on-path switch.
"""

import pytest

from repro.analyzer.apps import diagnose_gray_failure
from repro.scenarios import GrayFailureScenario

from benchmarks.reporting import emit

FLOW_COUNTS = [2, 4, 8]


def run_sweep():
    rows = {}
    for n in FLOW_COUNTS:
        rows[n] = GrayFailureScenario(n_flows=n).execute()
    return rows


@pytest.mark.benchmark(group="gray_failure")
def test_gray_failure_localization(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = ["flows  affected  localized_to_S3  healthy_clear  "
             "gray_drops  diag_ms_per_flow"]
    data = {}
    for n in FLOW_COUNTS:
        res = rows[n]
        affected = res.scenario.affected
        localized = sum(1 for v in res.verdicts if v.suspect == "S3")
        healthy_clear = sum(
            1 for flow in res.scenario.healthy
            if diagnose_gray_failure(
                res.deployment.analyzer, flow,
                silence_epochs=res.scenario.silence_epochs).suspect is None)
        per_flow_ms = (sum(v.total_time_s for v in res.verdicts)
                       / max(1, len(res.verdicts)) * 1e3)
        drops = res.measurements["gray_drops"]
        lines.append(f"  {n:3d}  {len(affected):8d}  {localized:15d}  "
                     f"{healthy_clear:13d}  {drops:10d}  "
                     f"{per_flow_ms:13.2f}")
        data[n] = {"affected": len(affected), "localized": localized,
                   "healthy_clear": healthy_clear, "gray_drops": drops,
                   "diag_ms_per_flow": per_flow_ms}
    lines.append("(expected: localized == affected, healthy_clear == "
                 "healthy count)")
    emit("gray_failure", lines, data=data)

    for n in FLOW_COUNTS:
        assert data[n]["localized"] == data[n]["affected"]
        assert data[n]["healthy_clear"] == n - data[n]["affected"]
        assert data[n]["gray_drops"] > 0
