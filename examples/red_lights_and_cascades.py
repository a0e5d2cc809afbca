#!/usr/bin/env python3
"""The paper's two hard cases: "too many red lights" and traffic cascades.

Both require correlating telemetry *across switches* (and, for cascades,
across flows that never themselves misbehave) — exactly what pure
end-host or pure in-network tools cannot do (§2.2, §2.3).

Run:  python examples/red_lights_and_cascades.py
"""

from repro.analyzer import diagnose_cascade, diagnose_red_lights
from repro.scenarios import run_scenario


def ascii_series(series, t_hi, width=40):
    rows = []
    for t, gbps in series:
        if t > t_hi:
            break
        bar = "#" * int(gbps * width)
        rows.append(f"  {t * 1e3:6.2f} ms {gbps:5.2f} Gbps {bar}")
    return rows


def red_lights() -> None:
    print("=" * 64)
    print("TOO MANY RED LIGHTS (Fig 1b / Fig 3 / §5.2)")
    print("=" * 64)
    res = run_scenario("red-lights", with_diagnosis=False).scenario
    print("\nvictim A->F throughput at S1 egress:")
    print("\n".join(ascii_series(res.tput_s1.series(), 0.008)))
    print("\nvictim A->F throughput at S2 egress "
          "(note the deeper, later dip — degradation accumulates):")
    print("\n".join(ascii_series(res.tput_s2.series(), 0.008)))

    alert = res.deployment.alerts()[0]
    print(f"\ntrigger fired at {alert.time * 1e3:.1f} ms; alert covers "
          f"switches {alert.switch_path}")
    verdict = diagnose_red_lights(res.deployment.analyzer, alert)
    print(f"diagnosis ({verdict.total_time_s * 1e3:.0f} ms): "
          f"{verdict.narrative}")


def cascades() -> None:
    print()
    print("=" * 64)
    print("TRAFFIC CASCADES (Fig 1c / Fig 4 / §5.3)")
    print("=" * 64)
    base, casc = (run_scenario("cascades", with_diagnosis=False,
                               cascaded=cascaded).scenario
                  for cascaded in (False, True))
    print("\nC-E (2 MB, low priority TCP) completion:")
    print(f"  without cascade: {base.ce_app.completed_at * 1e3:.1f} ms")
    print(f"  with cascade:    {casc.ce_app.completed_at * 1e3:.1f} ms")

    alert = casc.deployment.alerts()[0]
    verdict = diagnose_cascade(casc.deployment.analyzer, alert)
    print(f"\nrecursive diagnosis ({verdict.total_time_s * 1e3:.0f} ms):")
    print(f"  {verdict.narrative}")
    print("  (read right to left: B-D delayed A-F, which then delayed "
          "C-E — note that A-F and B-D never triggered any alert "
          "themselves)")
    for c in verdict.culprits:
        print(f"  hop: {c.flow.pretty()} implicated at {c.switch} via "
              f"records on {c.host}")


if __name__ == "__main__":
    red_lights()
    cascades()
