"""Per-rule fixture tests: each rule fires on its violating tree and
stays silent on its clean twin.

Fixtures are committed mini project trees
(``fixtures/<rule>/{violating,clean}/src/repro/...``) linted in place
with ``run_lint(root=<fixture>, rules=(<rule>,))`` — reprolint never
imports what it checks, so the violating trees cost nothing to keep.
"""

from pathlib import Path

import pytest

from tools.reprolint import RULES, Violation, run_lint
from tools.reprolint import rules as _rules  # noqa: F401  (registers catalogue)

FIXTURES = Path(__file__).parent / "fixtures"

#: rule name -> fixture directory name
CASES = {
    "no-wall-clock": "no_wall_clock",
    "no-global-rng": "no_global_rng",
    "knob-declaration": "knob_declaration",
    "fault-protocol": "fault_protocol",
    "registry-coverage": "registry_coverage",
    "typed-defs": "typed_defs",
    "stdlib-only-runtime": "stdlib_only_runtime",
    "module-state": "module_state",
    "gc-policy": "gc_policy",
    "pointer-read": "pointer_read",
    "sim-clock": "sim_clock",
    "record-write": "record_write",
    "test-only": "test_only",
}


def lint_fixture(rule: str, variant: str) -> list[Violation]:
    root = FIXTURES / CASES[rule] / variant
    assert root.is_dir(), f"missing fixture tree {root}"
    return run_lint(root, rules=(rule,))


def test_every_rule_has_fixture_coverage():
    """Adding a rule without fixtures must fail loudly, not silently."""
    assert set(CASES) == set(RULES.names())


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_fires_on_violating_tree(rule):
    violations = lint_fixture(rule, "violating")
    assert violations, f"{rule} found nothing in its violating fixture"
    assert all(v.rule == rule for v in violations)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_passes_clean_tree(rule):
    violations = lint_fixture(rule, "clean")
    assert violations == [], [v.render() for v in violations]


# -- rule-specific expectations, pinned to the committed fixtures --------


def test_wall_clock_strict_zone_rejects_pragma():
    violations = lint_fixture("no-wall-clock", "violating")
    by_rel = {v.rel: v for v in violations}
    strict = by_rel["src/repro/simnet/engine.py"]
    assert "not honored" in strict.message
    plain = by_rel["src/repro/metrics.py"]
    assert "allow[wall-clock]" in plain.message
    assert len(violations) == 2


def test_global_rng_names_offending_call():
    violations = lint_fixture("no-global-rng", "violating")
    messages = [v.message for v in violations]
    assert len(violations) == 3  # seed, randint, imported randrange
    assert any("random.seed" in m for m in messages)
    assert any("random.randrange" in m for m in messages)
    assert all("run_stream" in m for m in messages)


def test_stdlib_only_runtime_names_each_third_party_import():
    violations = lint_fixture("stdlib-only-runtime", "violating")
    blob = "\n".join(v.message for v in violations)
    # module-level, from-import of a submodule, function-local
    assert len(violations) == 3
    for package in ("'networkx'", "'numpy.random'", "'scipy.sparse.csgraph'"):
        assert package in blob
    assert "heapq" not in blob and "sibling" not in blob


def test_module_state_names_each_grown_name_and_unbounded_cache():
    violations = [v for v in lint_fixture("module-state", "violating")
                  if v.rel == "src/repro/memo.py"]
    blob = "\n".join(v.message for v in violations)
    # subscript store (memo), method append, method discard, nested
    # augmented subscript; then cache, lru_cache decorator, lru_cache call
    for name in ("'_hash_cache'", "'_seen'", "'_tags'", "'_counts'"):
        assert f"module-level {name} is mutated" in blob
    assert "_never_grown" not in blob  # bound but never mutated
    assert blob.count("functools.cache never forgets") == 1
    assert blob.count("functools.lru_cache(maxsize=None) never forgets") == 2
    assert len(violations) == 7
    # a container is reported at its binding line, once
    assert {v.line for v in violations if "is mutated" in v.message} == {
        7, 8, 9, 10}


def test_module_state_names_each_module_counter_a_function_advances():
    violations = [v for v in lint_fixture("module-state", "violating")
                  if v.rel == "src/repro/ids.py"]
    blob = "\n".join(v.message for v in violations)
    # itertools.count through the module, through a renamed from-import,
    # and a builtin iter(); one never passed to next() is not flagged
    for name in ("'_link_ids'", "'_serials'", "'_tokens'"):
        assert f"module-level {name} is mutated by a function" in blob
    assert "_never_advanced" not in blob
    assert [v.line for v in violations] == [6, 7, 8]


def test_gc_policy_names_each_call_outside_the_scenario_driver():
    violations = lint_fixture("gc-policy", "violating")
    # collect, aliased freeze, set_threshold, from-imported disable,
    # enable, unfreeze — all in the cell runner; the scenario
    # driver's own collect/disable/enable are the policy
    assert {v.rel for v in violations} == {"src/repro/experiment/cells.py"}
    blob = "\n".join(v.message for v in violations)
    for name in ("gc.collect()", "gc.freeze()", "gc.set_threshold()",
                 "gc.disable()", "gc.enable()", "gc.unfreeze()"):
        assert name in blob
    assert len(violations) == 6
    assert all("Scenario.execute owns collector policy" in v.message
               for v in violations)


def test_pointer_read_names_each_level_read_outside_the_agent():
    violations = lint_fixture("pointer-read", "violating")
    # the analyzer's epoch_status and snapshots_covering; the store's
    # and the agent's own reads are the one place the level is picked
    assert {v.rel for v in violations} == {"src/repro/analyzer/analyzer.py"}
    assert [v.line for v in violations] == [6, 8]
    blob = "\n".join(v.message for v in violations)
    for name in (".epoch_status()", ".snapshots_covering()"):
        assert name in blob
    assert all("SwitchAgent.best_effort_snapshots" in v.message
               for v in violations)


def test_sim_clock_names_each_write_outside_the_engine():
    violations = lint_fixture("sim-clock", "violating")
    # augmented, tuple-unpacked and setattr writes in a fault; the
    # engine's own writes and a local named ``now`` are not reported
    assert {v.rel for v in violations} == {"src/repro/faults/skew.py"}
    assert [v.line for v in violations] == [5, 9, 13]
    assert all("only Simulator.run moves the simulated clock" in v.message
               for v in violations)


def test_record_write_names_each_write_outside_the_store():
    violations = lint_fixture("record-write", "violating")
    # a whole-field write, an item write, two unpacked header writes,
    # the shape (path and offsets), a span end and the folded dict in
    # the decoder; its own packet count, a local read and the store's
    # writes are not reported
    assert {v.rel for v in violations} == {"src/repro/hostd/decoder.py"}
    assert sorted((v.line, v.message.split()[1]) for v in violations) == [
        (6, ".last_seen"), (7, ".bytes_by_epoch"), (8, "._tag"),
        (8, "._tag_epoch"), (10, "._shape"), (10, ".switch_path"),
        (11, "._span_hi"), (12, "._folded")]
    assert all("only the record store writes a flow record" in v.message
               for v in violations)


def test_test_only_names_what_only_tests_reach():
    violations = lint_fixture("test-only", "violating")
    # a method its own body and a docstring name, a function only the
    # package re-exports, one only a comment names; tests/ calls all three
    assert {v.rel for v in violations} == {"src/repro/store.py"}
    assert [v.message.split(" is named")[0] for v in violations] == [
        "def spill_to_disk", "def orphan_helper", "def comment_only"]
    # exempt or used: a dunder, the registered factory, a method a tool
    # reads, a function a trace string names, and the allow[test-only]
    # class with its method
    blob = "\n".join(v.message for v in violations)
    for name in ("__len__", "_exact_factory", "describe", "traced_step",
                 "Planned", "later", "main"):
        assert f" {name} " not in blob


def test_knob_declaration_names_every_offender():
    violations = lint_fixture("knob-declaration", "violating")
    blob = "\n".join(v.message for v in violations)
    # scenario-side: undeclared accesses + smoke knob
    assert "'burst_len'" in blob
    assert "'warmup'" in blob
    assert "smoke_knobs names undeclared knob 'rate'" in blob
    # experiment-side: grid, nightly grid, nightly point, base knob,
    # suspect knob
    assert "grid names undeclared knob 'ghost_grid'" in blob
    assert "nightly_grid names undeclared knob 'ghost_nightly'" in blob
    assert "nightly_points names undeclared knob 'ghost_point'" in blob
    assert "base_knobs names undeclared knob 'phantom'" in blob
    assert "expect_suspect_knob names undeclared knob 'missing'" in blob
    assert len(violations) == 8


def test_fault_protocol_catches_all_three_breaches():
    violations = lint_fixture("fault-protocol", "violating")
    blob = "\n".join(v.message for v in violations)
    assert "does not override heal()" in blob
    assert "describe() must take only self" in blob
    assert "saves self._saved" in blob
    # records_lost is a public measurement attribute: exempt
    assert "records_lost" not in blob
    assert len(violations) == 3


def test_registry_coverage_names_the_package_init():
    (violation,) = lint_fixture("registry-coverage", "violating")
    assert violation.rel == "src/repro/faults/orphan.py"
    assert "OrphanFault" in violation.message
    assert "__init__.py never imports it" in violation.message


def test_typed_defs_reports_params_and_returns():
    violations = lint_fixture("typed-defs", "violating")
    blob = "\n".join(v.message for v in violations)
    assert "scale() is missing parameter annotation(s) for value" in blob
    assert "total() is missing its return annotation" in blob
    # annotated __init__ params imply the None return; this one has none
    assert "__init__() is missing its return annotation" in blob
