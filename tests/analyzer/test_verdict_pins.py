"""Pin every registered scenario's full verdict, field by field.

The ledger fingerprint sees a verdict's problem and suspect; it does not
see the culprit order, the narrative, the co-suspect ranking or how the
modelled debugging time splits into phases.  ``verdict_pins.json`` holds
all of it, for the ten registered scenarios at their default knobs plus
gray-failure under the ``lsh`` directory backend, each run after
``seed_run(1729)``.  A change that moves a pin must say which one and why
and regenerate the file::

    PYTHONPATH=src python tests/analyzer/test_verdict_pins.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.rng import seed_run
from repro.scenarios import REGISTRY, run_scenario

PINS = Path(__file__).with_name("verdict_pins.json")
SEED = 1729

#: (pin id, scenario, knobs)
RUNS = [(name, name, {}) for name in REGISTRY.names()] + [
    ("gray-failure/lsh", "gray-failure", {"directory_backend": "lsh"}),
]


def _flow(flow):
    return flow.pretty() if flow is not None else None


def verdict_pin(v) -> dict:
    """Every field of one verdict that the apps compute."""
    return {
        "problem": v.problem,
        "victim": _flow(v.victim),
        "suspect": v.suspect,
        "status": v.status,
        "approx": v.approx,
        "missing_hosts": list(v.missing_hosts),
        "hosts_consulted": list(v.hosts_consulted),
        "culprits": [
            [_flow(c.flow), c.host, c.switch, c.priority, c.bytes,
             None if c.shared_epochs is None
             else [c.shared_epochs.lo, c.shared_epochs.hi]]
            for c in v.culprits],
        "cascade_chain": [_flow(f) for f in v.cascade_chain],
        "imbalanced": v.imbalanced,
        "co_suspects": list(v.co_suspects),
        "narrative": v.narrative,
        "breakdown": {phase: repr(s)
                      for phase, s in v.breakdown.parts.items()},
    }


def run_pins(pin_id: str) -> list[dict]:
    _, scenario, knobs = next(r for r in RUNS if r[0] == pin_id)
    seed_run(SEED)
    return [verdict_pin(v)
            for v in run_scenario(scenario, **knobs).verdicts]


@pytest.mark.parametrize("pin_id", [r[0] for r in RUNS])
def test_verdicts_match_pins(pin_id):
    want = json.loads(PINS.read_text())[pin_id]
    assert run_pins(pin_id) == want


def test_pins_cover_every_scenario():
    assert set(json.loads(PINS.read_text())) == {r[0] for r in RUNS}


if __name__ == "__main__":
    PINS.write_text(json.dumps({r[0]: run_pins(r[0]) for r in RUNS},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
