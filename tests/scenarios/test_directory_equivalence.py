"""Scenario-level directory-backend equivalence (the sketch acceptance
bar).

At the default budget (``directory_bits=0``, saturating) every sketch
backend is exact-equivalent by construction, so switching the whole
deployment onto it must not change a single diagnosis: same culprits,
suspects, narratives, statuses, cost breakdowns and fault-plan outcomes
on every registered scenario.  The switch is made by pointing every
deployment's default ``"auto"`` backend at the sketch (a monkeypatch of
``SwitchPointerDeployment``), so no scenario needs a knob threaded
through.

The only permitted differences are the *evidence labels*: sketch-backed
verdicts carry ``approx=True`` (the answers were supersets by
construction, even when bit-identical), and the similarity-driven
``co_suspects`` ranking may order differently under lsh signatures than
under exact Jaccard.  Both are normalized out before comparison and
asserted separately.
"""

from dataclasses import replace

import pytest

from repro.deployment import SwitchPointerDeployment
from repro.scenarios import REGISTRY, run_scenario


def _normalized(verdicts):
    return [replace(v, approx=False, co_suspects=[]) for v in verdicts]


def _auto_resolves_to(monkeypatch, backend):
    init = SwitchPointerDeployment.__init__

    def patched(self, network, *, directory_backend="auto", **kwargs):
        if directory_backend == "auto":
            directory_backend = backend
        init(self, network, directory_backend=directory_backend, **kwargs)

    monkeypatch.setattr(SwitchPointerDeployment, "__init__", patched)


@pytest.mark.parametrize("name", REGISTRY.names())
@pytest.mark.parametrize("backend", ["bloom", "lsh"])
def test_sketch_backend_reproduces_reference_diagnosis(name, backend,
                                                       monkeypatch):
    spec = REGISTRY.get(name).spec
    ref = run_scenario(name, **spec.smoke_knobs)
    _auto_resolves_to(monkeypatch, backend)
    got = run_scenario(name, **spec.smoke_knobs)
    assert _normalized(got.verdicts) == _normalized(ref.verdicts)
    assert (got.measurements.get("fault_plan")
            == ref.measurements.get("fault_plan"))
    # identical host supersets ⇒ identical consultation cost
    assert got.sim_time == ref.sim_time
    for gv, rv in zip(got.verdicts, ref.verdicts):
        assert gv.breakdown.parts == rv.breakdown.parts
        assert gv.status == rv.status
    # the evidence labels tell the two runs apart
    assert all(v.approx for v in got.verdicts)
    assert not any(v.approx for v in ref.verdicts)
    assert got.deployment.directory_backend == backend
    # saturating sketches measure zero false positives
    assert got.measurements.get("directory_fpr", 0.0) == 0.0
    assert ref.measurements.get("directory_fpr", 0.0) == 0.0
