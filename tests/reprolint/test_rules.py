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
    violations = lint_fixture("module-state", "violating")
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


def test_gc_policy_names_each_call_outside_the_scenario_driver():
    violations = lint_fixture("gc-policy", "violating")
    # collect, aliased freeze, set_threshold, from-imported disable,
    # enable, unfreeze — all in the sweep runner; the scenario
    # driver's own collect/disable/enable are the policy
    assert {v.rel for v in violations} == {"src/repro/sweep/runner.py"}
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


def test_knob_declaration_names_every_offender():
    violations = lint_fixture("knob-declaration", "violating")
    blob = "\n".join(v.message for v in violations)
    # scenario-side: undeclared accesses + smoke knob
    assert "'burst_len'" in blob
    assert "'warmup'" in blob
    assert "smoke_knobs names undeclared knob 'rate'" in blob
    # sweep-side: axis, base knob, suspect knob
    assert "axis 'x' binds knob 'ghost_axis'" in blob
    assert "base_knobs names undeclared knob 'phantom'" in blob
    assert "expect_suspect_knob names undeclared knob 'missing'" in blob
    assert len(violations) == 6


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
