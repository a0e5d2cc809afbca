"""Self-test of the ledger: the same code path at toy shapes.

Collected by ``python -m pytest benchmarks`` (the non-blocking figure
job), not by tier-1.  Every workload runs both passes in fresh child
processes at ``hosts=64, bg_flows=50`` with 2 ops (3 query batches).
"""

import json
import re

import pytest

from benchmarks.ledger import runner, trace
from benchmarks.ledger.workloads import WORKLOADS

DECLARED = json.loads(
    (runner.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module", params=WORKLOADS)
def passes(request):
    ops = 3 if request.param == "query_loop" else 2
    return [runner.run_workload(request.param, 1729, 1, traced, toy=True,
                                ops=ops) for traced in (False, True)]


def test_declared_workloads_are_the_ones_that_run():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_outputs_are_correct(passes):
    for run in passes:
        assert run["failures"] == []
        assert run["correct"] and run["failed"] == 0
        assert run["attempted"] >= 2


@pytest.mark.parametrize("section, traced", [("end_to_end", 0),
                                             ("per_layer", 1)])
def test_emitted_names_are_the_declared_names(passes, section, traced):
    emitted = passes[traced]["metrics"]
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert set(emitted) == set(declared)
    assert {n: m["unit"] for n, m in emitted.items()} == declared
    assert all(NAME.fullmatch(name) for name in emitted)


def test_end_to_end_metrics_are_never_zero(passes):
    for name, metric in passes[0]["metrics"].items():
        assert metric["value"] > 0, name


def test_self_times_add_up_to_the_op(passes):
    untraced, traced = passes[1]["children"]
    self_s = traced["trace"]["self_s"]
    total = sum(sum(parts.values()) for parts in self_s.values())
    unattributed = sum(self_s["op"].values())
    timed_by_runner = sum(s["wall_ms"] for s in traced["ops"]) / 1e3
    # the tracer's stack accounts for the same seconds the runner's own
    # clock saw around the ops, and at most a tenth belongs to no layer
    assert total == pytest.approx(timed_by_runner, rel=0.02)
    share = passes[1]["metrics"]["trace.unattributed_share"]["value"]
    assert share == pytest.approx(unattributed / total)
    assert share <= 0.10
    assert traced["trace"]["missing"] == []
    # tracing must not change what is simulated
    assert ([s["fingerprint"] for s in untraced["ops"]]
            == [s["fingerprint"] for s in traced["ops"]])


def test_same_seed_same_fingerprints_and_counts(passes):
    again = runner.run_workload(passes[1]["workload"], 1729, 1, True,
                                toy=True, ops=passes[1]["attempted"] // 2)
    assert again["fingerprints"] == passes[1]["fingerprints"]
    for name, metric in passes[1]["metrics"].items():
        if metric["unit"] in ("count", "bit", "B"):
            assert again["metrics"][name]["value"] == metric["value"], name


def _patch_points():
    from repro.analyzer import apps
    from repro.scenarios import REGISTRY
    from repro.simnet.engine import Simulator
    from repro.simnet.host import Host

    owners = [Simulator, Host, apps]
    owners += [REGISTRY.get(name) for name in REGISTRY.names()]
    for module_name, qualname, *_ in trace.TABLE:
        owner = __import__(module_name, fromlist=["_"])
        for step in qualname.split(".")[:-1]:
            owner = getattr(owner, step)
        owners.append(owner)
    return {(owner, attr): value for owner in owners
            for attr, value in vars(owner).items()}


def test_wrappers_are_fully_removed():
    before = _patch_points()
    tracer = trace.Tracer()
    tracer.install()
    assert tracer.missing == []
    assert _patch_points() != before
    tracer.uninstall()
    after = _patch_points()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
