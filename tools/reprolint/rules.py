"""The rule catalogue: every registered reprolint invariant.

Each rule mirrors one contract the runtime enforces late (or cannot
enforce at all) and fails it at lint time instead, in the spirit of
pushing checks to where the evidence lives:

* determinism — ``no-wall-clock``, ``no-global-rng``: simulated time
  and seeded RNG streams are the reproducibility spine;
* registry conformance — ``knob-declaration``, ``fault-protocol``,
  ``registry-coverage``: the decorator registries only police what
  gets *registered*, not what a module forgot to declare or import;
* typing drift — ``typed-defs``: the mypy typed core must carry the
  annotations mypy needs, even where mypy is not installed;
* packaging — ``stdlib-only-runtime``: the runtime's dependency list is
  empty and stays so;
* lifetime — ``module-state``: state a function mutates belongs to an
  object its caller owns, not to the module (or an unbounded cache);
  ``gc-policy``: one driver, ``Scenario.execute``, sets collector
  policy;
* the §4.1.1 read — ``pointer-read``: only the switch agent picks the
  hierarchy level that answers a window;
* simulated time — ``sim-clock``: only the engine moves the clock;
* the host fold — ``record-write``: only the store writes a record;
* reachability — ``test-only``: a definition in src/repro has a caller
  outside tests/.

Rules are pure AST passes over the :class:`~tools.reprolint.model.Project`
— nothing under check is imported, so they run identically on the real
tree and on the violating fixture trees the unit tests commit.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from typing import Iterator, Optional

from . import Rule, RuleSpec, Violation, register_rule
from .model import Module, Project

# ---------------------------------------------------------------------------
# scopes shared by several rules
# ---------------------------------------------------------------------------

#: Everything reprolint polices lives here.
SRC = "src/repro"

#: Packages where wall-clock reads are banned outright (no pragma):
#: their only clock is the simulator's.
SIMULATED_TIME_CORE = (
    f"{SRC}/simnet",
    f"{SRC}/faults",
    f"{SRC}/switchd",
    f"{SRC}/hostd",
)

#: The typed-core subset mypy checks strictly in CI; the ``typed-defs``
#: rule enforces the same annotation completeness without needing mypy
#: installed.  ``[tool.mypy] files`` in pyproject.toml is the same list
#: (tests/reprolint/test_mypy.py holds the two equal).
TYPED_CORE = (
    f"{SRC}/registry.py",
    f"{SRC}/experiment",
    f"{SRC}/faults",
    f"{SRC}/analyzer",
    f"{SRC}/directory",
    f"{SRC}/scenarios/base.py",
    f"{SRC}/simnet/workload.py",
)

#: Registry packages whose ``__init__.py`` must import every
#: registering module (rule ``registry-coverage``).
REGISTRY_PACKAGES = (
    f"{SRC}/scenarios",
    f"{SRC}/faults",
    f"{SRC}/experiment",
    f"{SRC}/directory",
)


# ---------------------------------------------------------------------------
# small AST helpers
# ---------------------------------------------------------------------------


def _callee_name(call: ast.Call) -> Optional[str]:
    """The bare name a call is made through (``Spec(...)``, ``m.Spec(...)``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_names(node: ast.ClassDef) -> tuple[str, ...]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _decorator_names(node: ast.ClassDef) -> set[str]:
    out = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            out.add(target.id)
        elif isinstance(target, ast.Attribute):
            out.add(target.attr)
    return out


def _str_kwarg(call: ast.Call, name: str) -> Optional[str]:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            if isinstance(kw.value.value, str):
                return kw.value.value
    return None


def _kwarg(call: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)
    }


@dataclass
class ClassInfo:
    """One class definition, as seen by the AST (no imports resolved)."""

    module: Module
    node: ast.ClassDef
    bases: tuple[str, ...]


def _class_map(project: Project, *prefixes: str) -> dict[str, ClassInfo]:
    classes: dict[str, ClassInfo] = {}
    for module in project.under(*prefixes):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = ClassInfo(
                    module=module, node=node, bases=_base_names(node)
                )
    return classes


def _reaches(classes: dict[str, ClassInfo], name: str, target: str) -> bool:
    """Does ``name`` transitively subclass ``target`` (by base names)?"""
    seen = set()
    frontier = [name]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        info = classes.get(current)
        if info is None:
            continue
        for base in info.bases:
            if base == target:
                return True
            frontier.append(base)
    return False


def _ancestry(
    classes: dict[str, ClassInfo], name: str, stop: str
) -> Iterator[ClassInfo]:
    """``name`` and its in-project ancestors, excluding ``stop``'s class."""
    seen = set()
    frontier = [name]
    while frontier:
        current = frontier.pop()
        if current in seen or current == stop:
            continue
        seen.add(current)
        info = classes.get(current)
        if info is None:
            continue
        yield info
        frontier.extend(info.bases)


def _self_attr_name(node: ast.expr, self_name: str) -> Optional[str]:
    """``self.<attr>`` -> attr (for the method's actual self name)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# R1: no-wall-clock
# ---------------------------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register_rule
class NoWallClock(Rule):
    """Simulated components must consume simulated time only."""

    spec = RuleSpec(
        name="no-wall-clock",
        summary="wall-clock reads (time.time, datetime.now, "
        "perf_counter, ...) are banned in simulated components",
        rationale="The epoch design assumes ε-bounded *simulated* "
        "asynchrony: one stray wall-clock read in simnet/faults/"
        "switchd/hostd couples results to host load and breaks "
        "bit-identical replay of a recorded seed.",
        scope="src/repro/ — strict (no pragma) in simnet/, faults/, "
        "switchd/, hostd/; elsewhere a declared measurement site may "
        "carry the pragma",
        pragma="wall-clock",
        fix="Use the simulator clock (network.sim.now / EpochClock); "
        "for genuine wall-clock *measurements* in sweep/scenario "
        "runners, annotate the site with the pragma.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(SRC):
            strict = any(
                module.rel.startswith(p + "/") or module.rel == p
                for p in SIMULATED_TIME_CORE
            )
            for call, stmt in module.calls_with_statements():
                name = module.qualified_call(call)
                if name not in _WALL_CLOCK_CALLS:
                    continue
                if strict:
                    yield self.violation(
                        module,
                        call.lineno,
                        f"{name}() in a simulated-time package — use "
                        f"the simulator clock (allow[wall-clock] is "
                        f"not honored here)",
                    )
                elif not module.allows(call, "wall-clock", stmt=stmt):
                    yield self.violation(
                        module,
                        call.lineno,
                        f"{name}() without a '# reprolint: "
                        f"allow[wall-clock]' pragma — simulated "
                        f"behaviour must not read the host clock",
                    )


# ---------------------------------------------------------------------------
# R2: no-global-rng
# ---------------------------------------------------------------------------

_RNG_CLASSES = {"Random", "SystemRandom"}


@register_rule
class NoGlobalRng(Rule):
    """All randomness flows through seeded streams, never module state."""

    spec = RuleSpec(
        name="no-global-rng",
        summary="calls through the module-level random (random.seed, "
        "random.sample, ...) are banned; use a seeded stream",
        rationale="The interpreter-global RNG is shared, reseedable "
        "state: any library call can advance it and silently change "
        "a recorded sweep point's replay.  Seeded random.Random "
        "instances — repro.core.rng.run_stream(), workload._stream() "
        "— keep every draw attributable to a recorded seed.",
        scope="src/repro/",
        pragma=None,
        fix="Draw from repro.core.rng.run_stream() for ambient "
        "randomness, or give the component its own seeded "
        "random.Random when it owns a seed knob.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(SRC):
            for call, _stmt in module.calls_with_statements():
                name = module.qualified_call(call)
                if name is None or not name.startswith("random."):
                    continue
                fn = name.removeprefix("random.")
                if fn in _RNG_CLASSES or "." in fn:
                    continue  # seeded instance construction is the fix
                yield self.violation(
                    module,
                    call.lineno,
                    f"{name}() draws from the module-level random — "
                    f"use repro.core.rng.run_stream() or a seeded "
                    f"random.Random so the draw replays from a "
                    f"recorded seed",
                )


# ---------------------------------------------------------------------------
# R3: knob-declaration
# ---------------------------------------------------------------------------


def _knob_helper_keys(
    project: Project, fn_name: str, depth: int = 0
) -> Optional[set[str]]:
    """Keys of the dict literal a knob-helper function returns.

    Resolves the ``**background_knobs()`` idiom: a module-level
    function (anywhere in the scanned tree) whose return statement is
    a dict literal of constant keys.  Returns None when the helper
    cannot be resolved statically.
    """
    if depth > 2:
        return None
    for module in project.under(SRC):
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name != fn_name:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                    keys, closed = _dict_knob_keys(project, node.value, depth + 1)
                    return keys if closed else None
            return None
    return None


def _dict_knob_keys(
    project: Project, node: ast.Dict, depth: int = 0
) -> tuple[set[str], bool]:
    """(keys, fully-resolved?) of a knob dict literal with ** merges."""
    keys: set[str] = set()
    closed = True
    for key, value in zip(node.keys, node.values):
        if key is None:  # a ``**expr`` merge entry
            sub: Optional[set[str]] = None
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                sub = _knob_helper_keys(project, value.func.id, depth)
            if sub is None:
                closed = False
            else:
                keys |= sub
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
        else:
            closed = False
    return keys, closed


@dataclass
class ScenarioModel:
    """Statically-derived view of one Scenario subclass."""

    info: ClassInfo
    name: Optional[str]  # ScenarioSpec name=, when given literally
    knobs: set[str]
    closed: bool  # False when the knob set could not be fully resolved
    spec_call: Optional[ast.Call]


def _scenario_models(project: Project) -> dict[str, ScenarioModel]:
    classes = _class_map(project, SRC)
    models: dict[str, ScenarioModel] = {}
    for cls_name, info in classes.items():
        if not _reaches(classes, cls_name, "Scenario"):
            continue
        spec_call = None
        for owner in [info, *(_ancestry(classes, cls_name, "Scenario"))]:
            for stmt in owner.node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "spec"
                        for t in stmt.targets
                    )
                    and isinstance(stmt.value, ast.Call)
                    and _callee_name(stmt.value) == "ScenarioSpec"
                ):
                    spec_call = stmt.value
                    break
            if spec_call is not None:
                break
        knobs: set[str] = set()
        closed = spec_call is not None
        if spec_call is not None:
            knobs_node = _kwarg(spec_call, "knobs")
            if knobs_node is None:
                pass  # a scenario may declare no knobs at all
            elif isinstance(knobs_node, ast.Dict):
                knobs, closed = _dict_knob_keys(project, knobs_node)
            elif isinstance(knobs_node, ast.Call) and isinstance(
                knobs_node.func, ast.Name
            ):
                # the knobs=_shared_knobs(...) helper idiom
                resolved = _knob_helper_keys(project, knobs_node.func.id)
                if resolved is None:
                    closed = False
                else:
                    knobs = set(resolved)
            else:
                closed = False
        models[cls_name] = ScenarioModel(
            info=info,
            name=_str_kwarg(spec_call, "name") if spec_call else None,
            knobs=knobs,
            closed=closed,
            spec_call=spec_call,
        )
    return models


def _knob_accesses(
    node: ast.ClassDef,
) -> Iterator[tuple[str, int]]:
    """Every literal ``self.p["..."]`` / ``self.p.get("...")`` access,
    including through a local ``p = self.p`` alias."""
    for fn in node.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args.posonlyargs + fn.args.args
        if not args:
            continue
        self_name = args[0].arg
        aliases = {
            stmt.targets[0].id
            for stmt in ast.walk(fn)
            if isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and _self_attr_name(stmt.value, self_name) == "p"
        }

        def is_p(expr: ast.expr) -> bool:
            if _self_attr_name(expr, self_name) == "p":
                return True
            return isinstance(expr, ast.Name) and expr.id in aliases

        for sub in ast.walk(fn):
            if (
                isinstance(sub, ast.Subscript)
                and is_p(sub.value)
                and isinstance(sub.slice, ast.Constant)
                and isinstance(sub.slice.value, str)
            ):
                yield sub.slice.value, sub.lineno
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "get"
                and is_p(sub.func.value)
                and sub.args
                and isinstance(sub.args[0], ast.Constant)
                and isinstance(sub.args[0].value, str)
            ):
                yield sub.args[0].value, sub.lineno


@register_rule
class KnobDeclaration(Rule):
    """Knob use and knob declaration cannot drift apart."""

    spec = RuleSpec(
        name="knob-declaration",
        summary="every self.p[...] access in a Scenario must be a "
        "declared knob, and every ExperimentSpec grid, point, pinned "
        "and suspect knob must name one",
        rationale="Knobs are the contract between scenarios, "
        "experiments, the CLI and the generated docs: an undeclared "
        "access dies as a KeyError mid-run (after minutes of build time "
        "at scale), and a run table over a misspelled knob fails every "
        "cell instead of charting anything.",
        scope="src/repro/ (Scenario subclasses and ExperimentSpec "
        "declarations; knob sets resolved through the "
        "background_knobs()/fault_knobs() helper idiom)",
        pragma=None,
        fix="Declare the knob in the scenario's spec.knobs (with a "
        "default and help string), or fix the name at the use site.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        models = _scenario_models(project)
        by_scenario_name = {m.name: m for m in models.values() if m.name is not None}
        for cls_name, model in sorted(models.items()):
            if not model.closed:
                continue  # dynamic knob construction: nothing provable
            for knob, lineno in _knob_accesses(model.info.node):
                if knob not in model.knobs:
                    yield self.violation(
                        model.info.module,
                        lineno,
                        f"{cls_name} accesses undeclared knob {knob!r} "
                        f"(spec.knobs declares: "
                        f"{', '.join(sorted(model.knobs)) or '(none)'})",
                    )
            if model.spec_call is not None:
                smoke = _kwarg(model.spec_call, "smoke_knobs")
                if isinstance(smoke, ast.Dict):
                    for key in smoke.keys:
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and key.value not in model.knobs
                        ):
                            yield self.violation(
                                model.info.module,
                                key.lineno,
                                f"{cls_name} smoke_knobs names "
                                f"undeclared knob {key.value!r}",
                            )
        yield from self._check_experiment_specs(project, by_scenario_name)

    def _check_experiment_specs(
        self,
        project: Project,
        scenarios: dict[str, ScenarioModel],
    ) -> Iterator[Violation]:
        for module in project.under(SRC):
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and _callee_name(node) == "ExperimentSpec"
                ):
                    continue
                scenario = _str_kwarg(node, "scenario")
                model = scenarios.get(scenario) if scenario else None
                if model is None or not model.closed:
                    continue
                name = _str_kwarg(node, "name") or scenario
                dicts = [
                    (kwarg, _kwarg(node, kwarg))
                    for kwarg in ("grid", "nightly_grid", "base_knobs")
                ]
                points = _kwarg(node, "nightly_points")
                if isinstance(points, (ast.Tuple, ast.List)):
                    dicts += [("nightly_points", point) for point in points.elts]
                for kwarg, value in dicts:
                    if not isinstance(value, ast.Dict):
                        continue
                    for key in value.keys:
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and key.value not in model.knobs
                        ):
                            yield self.violation(
                                module,
                                key.lineno,
                                f"experiment {name!r}: {kwarg} names "
                                f"undeclared knob {key.value!r} of "
                                f"scenario {scenario!r}",
                            )
                suspect = _kwarg(node, "expect_suspect_knob")
                if (
                    isinstance(suspect, ast.Constant)
                    and isinstance(suspect.value, str)
                    and suspect.value not in model.knobs
                ):
                    yield self.violation(
                        module,
                        suspect.lineno,
                        f"experiment {name!r}: expect_suspect_knob names "
                        f"undeclared knob {suspect.value!r} of "
                        f"scenario {scenario!r}",
                    )


# ---------------------------------------------------------------------------
# R4: fault-protocol
# ---------------------------------------------------------------------------


@register_rule
class FaultProtocol(Rule):
    """Fault subclasses implement the full schedule→inject→heal contract."""

    spec = RuleSpec(
        name="fault-protocol",
        summary="Fault subclasses must override inject and heal, keep "
        "describe's signature, and heal the state inject saves",
        rationale="abc catches a missing inject/heal only when the "
        "fault is first instantiated — possibly in a nightly sweep. "
        "And a fault whose inject stashes saved state (self._saved) "
        "that heal never touches cannot restore the system, which "
        "corrupts every stop=/multi-fault composition.",
        scope="src/repro/faults/",
        pragma=None,
        fix="Implement both transitions; reference every private "
        "attribute inject assigns from heal() (or finalize()).  "
        "Public attributes are the fault's measured surface and are "
        "exempt.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        classes = _class_map(project, f"{SRC}/faults")
        for cls_name in sorted(classes):
            info = classes[cls_name]
            if not _reaches(classes, cls_name, "Fault"):
                continue
            chain = list(_ancestry(classes, cls_name, "Fault"))
            defined: dict[str, ast.FunctionDef] = {}
            for owner in chain:
                for name, fn in _methods(owner.node).items():
                    defined.setdefault(name, fn)
            for required in ("inject", "heal"):
                if required not in defined:
                    yield self.violation(
                        info.module,
                        info.node.lineno,
                        f"{cls_name} does not override {required}() — "
                        f"the fault protocol requires both state "
                        f"transitions",
                    )
            own = _methods(info.node)
            describe = own.get("describe")
            if describe is not None:
                params = describe.args.posonlyargs + describe.args.args
                if len(params) != 1 or describe.args.kwonlyargs:
                    yield self.violation(
                        info.module,
                        describe.lineno,
                        f"{cls_name}.describe() must take only self — "
                        f"the registry renders it uniformly",
                    )
            yield from self._check_saved_state(info, defined)

    def _check_saved_state(
        self, info: ClassInfo, defined: dict[str, ast.FunctionDef]
    ) -> Iterator[Violation]:
        inject = _methods(info.node).get("inject")
        if inject is None:
            return
        args = inject.args.posonlyargs + inject.args.args
        if not args:
            return
        self_name = args[0].arg
        saved: dict[str, int] = {}
        for node in ast.walk(inject):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                attr = _self_attr_name(target, self_name)
                if attr is not None and attr.startswith("_"):
                    saved.setdefault(attr, target.lineno)
        if not saved:
            return
        referenced: set[str] = set()
        for name in ("heal", "finalize"):
            fn = defined.get(name)
            if fn is None:
                continue
            fn_args = fn.args.posonlyargs + fn.args.args
            fn_self = fn_args[0].arg if fn_args else "self"
            for node in ast.walk(fn):
                attr = _self_attr_name(node, fn_self)
                if attr is not None:
                    referenced.add(attr)
        for attr, lineno in sorted(saved.items(), key=lambda kv: kv[1]):
            if attr not in referenced:
                yield self.violation(
                    info.module,
                    lineno,
                    f"{info.node.name}.inject() saves self.{attr} but "
                    f"heal()/finalize() never references it — the "
                    f"fault cannot undo what it saved",
                )


# ---------------------------------------------------------------------------
# R5: registry-coverage
# ---------------------------------------------------------------------------

_REGISTER_DECORATORS = {"register", "register_fault"}
_REGISTER_CALLS = {"register_experiment", "register_directory"}


def _registers_something(
    module: Module, classes: dict[str, ClassInfo]
) -> Optional[str]:
    """What this module registers, if anything (a human-readable tag)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            if _decorator_names(node) & _REGISTER_DECORATORS:
                return f"registered class {node.name}"
            has_spec = any(
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "spec" for t in stmt.targets
                )
                for stmt in node.body
            )
            if has_spec and (
                _reaches(classes, node.name, "Scenario")
                or _reaches(classes, node.name, "Fault")
            ):
                return f"registrable class {node.name}"
        elif isinstance(node, ast.Call) and _callee_name(node) in _REGISTER_CALLS:
            return f"a {_callee_name(node)} declaration"
    return None


@register_rule
class RegistryCoverage(Rule):
    """Registering modules must be reachable from their package import."""

    spec = RuleSpec(
        name="registry-coverage",
        summary="every scenarios/, faults/, experiment/, directory/ "
        "module that registers something must be imported by its package "
        "__init__.py",
        rationale="Registration is an import side effect: a module the "
        "package aggregator never imports simply vanishes — its "
        "scenario/fault/experiment is absent from the CLI, the "
        "nightly driver, and the generated catalogues, with no error "
        "anywhere.",
        scope="src/repro/scenarios/, src/repro/faults/, "
        "src/repro/experiment/, src/repro/directory/",
        pragma=None,
        fix="Import the module from the package __init__.py (the "
        "catalogue aggregator), the way every sibling module is.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        classes = _class_map(project, SRC)
        for package in REGISTRY_PACKAGES:
            init = project.get(f"{package}/__init__.py")
            if init is None:
                continue
            imported: set[str] = set()
            for node in ast.walk(init.tree):
                if isinstance(node, ast.ImportFrom) and node.level >= 1:
                    if node.module is None:  # from . import mod
                        imported.update(a.name for a in node.names)
                    else:
                        imported.add(node.module.split(".")[0])
            for module in project.under(package):
                stem = module.rel.rsplit("/", 1)[-1].removesuffix(".py")
                if stem == "__init__":
                    continue
                what = _registers_something(module, classes)
                if what is not None and stem not in imported:
                    yield self.violation(
                        module,
                        1,
                        f"module defines {what} but "
                        f"{package}/__init__.py never imports it — "
                        f"the registry (and every catalogue built "
                        f"from it) will not see this module",
                    )


# ---------------------------------------------------------------------------
# R6: typed-defs
# ---------------------------------------------------------------------------


@register_rule
class TypedDefs(Rule):
    """The typed core carries complete annotations (mypy's local mirror)."""

    spec = RuleSpec(
        name="typed-defs",
        summary="every function in the typed-core subset (registry.py, "
        "experiment/, faults/, analyzer/, directory/, "
        "scenarios/base.py, simnet/workload.py) has complete parameter "
        "and return annotations",
        rationale="CI runs mypy over exactly this subset with "
        "disallow_untyped_defs; this rule enforces the same "
        "completeness from the AST, so the gap surfaces in any "
        "environment — including ones without mypy installed.",
        scope="src/repro/registry.py, "
        "src/repro/experiment/, src/repro/faults/, src/repro/analyzer/, "
        "src/repro/directory/, "
        "src/repro/scenarios/base.py, "
        "src/repro/simnet/workload.py",
        pragma=None,
        fix="Annotate every parameter (typing.Any is acceptable where "
        "the value is genuinely dynamic) and the return type; "
        "__init__ may omit the return when at least one parameter is "
        "annotated.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(*TYPED_CORE):
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield from self._check_function(module, node)

    def _check_function(
        self, module: Module, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        missing = []
        annotated = 0
        for index, arg in enumerate(params):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
            else:
                annotated += 1
        for star in (fn.args.vararg, fn.args.kwarg):
            if star is None:
                continue
            if star.annotation is None:
                missing.append(f"*{star.arg}")
            else:
                annotated += 1
        if missing:
            yield self.violation(
                module,
                fn.lineno,
                f"{fn.name}() is missing parameter annotation(s) for "
                f"{', '.join(missing)} (typed-core runs mypy strict "
                f"on defs)",
            )
        if fn.returns is None and not (fn.name == "__init__" and annotated):
            yield self.violation(
                module,
                fn.lineno,
                f"{fn.name}() is missing its return annotation "
                f"(typed-core runs mypy strict on defs)",
            )


# ---------------------------------------------------------------------------
# R7: stdlib-only-runtime
# ---------------------------------------------------------------------------


@register_rule
class StdlibOnlyRuntime(Rule):
    """The runtime imports the standard library and itself, nothing else."""

    spec = RuleSpec(
        name="stdlib-only-runtime",
        summary="an import under src/repro must resolve to the standard "
        "library or to repro itself",
        rationale="[project].dependencies is empty: numpy and networkx "
        "were measured out of the runtime (a third of the import time "
        "and ~14 MB of every process each) and live in the test extra. "
        "One convenience import puts the cost back into every process "
        "the CLI, the sweeps and the ledger start — and breaks a plain "
        "install.",
        scope="src/repro/ (module-level and function-local imports alike)",
        pragma=None,
        fix="Write it against the standard library, or move the code "
        "that needs the package under tests/, benchmarks/ or tools/.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        ours = sys.stdlib_module_names | {"repro"}
        for module in project.under(SRC):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module or ""]
                else:
                    continue  # relative imports stay inside repro
                for name in names:
                    if name.partition(".")[0] not in ours:
                        yield self.violation(
                            module,
                            node.lineno,
                            f"import of {name!r} — the runtime depends on "
                            f"the standard library only (third-party "
                            f"packages belong to the test extra)",
                        )


# ---------------------------------------------------------------------------
# R8: module-state
# ---------------------------------------------------------------------------

_CONTAINER_DISPLAYS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.DictComp,
    ast.ListComp,
    ast.SetComp,
)
_CONTAINER_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict"}
_MUTATORS = {
    *"append extend insert add update setdefault".split(),
    *"pop popitem remove discard clear".split(),
}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_container(value: Optional[ast.expr]) -> bool:
    if isinstance(value, ast.Call):
        return _callee_name(value) in _CONTAINER_FACTORIES
    return isinstance(value, _CONTAINER_DISPLAYS)


def _is_iterator(module: Module, value: Optional[ast.expr]) -> bool:
    """``itertools.count(...)`` or ``iter(...)``: what ``next()`` advances."""
    if not isinstance(value, ast.Call):
        return False
    name = module.qualified_call(value)
    if name is None and isinstance(value.func, ast.Name):
        name = value.func.id
    return name in ("itertools.count", "iter")


def _module_containers(module: Module) -> dict[str, ast.stmt]:
    """Module-level names bound to a fresh dict/list/set or iterator,
    with the binding."""
    out: dict[str, ast.stmt] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if _is_container(value) or _is_iterator(module, value):
            for target in targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, stmt)
    return out


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``fn``'s own scope: nested functions and classes are
    scopes of their own and are walked separately."""
    frontier = list(ast.iter_child_nodes(fn))
    while frontier:
        node = frontier.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            frontier.extend(ast.iter_child_nodes(node))


def _local_names(fn: ast.AST) -> set[str]:
    """Names ``fn`` binds itself (so they shadow a module-level name)."""
    local: set[str] = set()
    declared: set[str] = set()
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.arg):
            local.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            local.update((a.asname or a.name).partition(".")[0] for a in node.names)
    return local - declared


def _mutated_name(node: ast.AST) -> Optional[str]:
    """The bare name ``node`` mutates in place, if it is one of the
    mutations the rule counts."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        target = node.value
    elif isinstance(node, ast.AugAssign):
        target = node.target
        if isinstance(target, ast.Subscript):
            target = target.value
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
    ):
        target = node.func.value
    elif isinstance(node, ast.Call) and _callee_name(node) == "next" and node.args:
        target = node.args[0]
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _unbounded_cache(module: Module, node: ast.expr) -> Optional[str]:
    """``functools.cache`` / ``lru_cache(maxsize=None)``, as a decorator
    or a call, named by what the source wrote; None for anything else."""
    call = node if isinstance(node, ast.Call) else None
    target = call.func if call is not None else node
    parts: list[str] = []
    while isinstance(target, ast.Attribute):
        parts.append(target.attr)
        target = target.value
    if not isinstance(target, ast.Name):
        return None
    origin = module.imports.get(target.id)
    if origin is None:
        return None
    name = ".".join([origin, *reversed(parts)])
    if name == "functools.cache":
        return "functools.cache"
    if name == "functools.lru_cache" and call is not None:
        size = _kwarg(call, "maxsize")
        if size is None and call.args:
            size = call.args[0]
        if isinstance(size, ast.Constant) and size.value is None:
            return "functools.lru_cache(maxsize=None)"
    return None


@register_rule
class ModuleState(Rule):
    """Mutable state lives on objects callers own, not in a module."""

    spec = RuleSpec(
        name="module-state",
        summary="a module-level dict/list/set a function mutates, a "
        "module-level iterator a function advances, and functools.cache / "
        "lru_cache(maxsize=None), are banned in src/repro",
        rationale="Module state outlives every object that filled it: a "
        "process-wide memo keeps every flow of every network a sweep or "
        "experiment worker ever simulated, so the worker grows cell "
        "after cell and a measured peak RSS reads the leak, not the "
        "run.  It is also shared by every caller in the process, so one "
        "test or cell can change what the next one sees.  A module-level "
        "counter is the same sharing: the id it hands out depends on how "
        "many objects the process built before.  An unbounded "
        "functools cache is the same leak behind a decorator.",
        scope="src/repro/ (module-level names bound to a dict/list/set "
        "display or comprehension, or to dict()/list()/set()/"
        "defaultdict()/OrderedDict(), that a function subscript-stores, "
        "deletes from, augments or calls append/extend/insert/add/"
        "update/setdefault/pop/popitem/remove/discard/clear on; "
        "module-level names bound to itertools.count() or iter() that a "
        "function passes to next(); "
        "functools.cache and lru_cache(maxsize=None) anywhere)",
        pragma="module-state",
        fix="Hang the state on the object whose lifetime it shares (the "
        "Network, the deployment, the scenario) and hand it to whoever "
        "needs it (a counter too, or use the container's length); bound "
        "a cache, or memoize on that object.  State "
        "filled once at import time and only read afterwards is not "
        "flagged; a deliberate process-wide registry carries the pragma "
        "on its binding line.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(SRC):
            yield from self._check_containers(module)
            yield from self._check_caches(module)

    def _check_containers(self, module: Module) -> Iterator[Violation]:
        containers = {
            name: stmt
            for name, stmt in _module_containers(module).items()
            if not module.allows(stmt, "module-state", stmt=stmt)
        }
        flagged: set[str] = set()
        # function bodies only: import-time filling is written once, then read
        for fn in ast.walk(module.tree):
            if not isinstance(fn, _FUNCTIONS):
                continue
            local = _local_names(fn)
            for node in _own_nodes(fn):
                name = _mutated_name(node)
                if name in containers and name not in local | flagged:
                    flagged.add(name)
                    yield self.violation(
                        module,
                        containers[name].lineno,
                        f"module-level {name!r} is mutated by a function "
                        f"(line {getattr(node, 'lineno', '?')}) — it lives "
                        f"as long as the process and is shared by every "
                        f"caller; hang it on an object the caller owns",
                    )

    def _check_caches(self, module: Module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            exprs: list[ast.expr] = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a called decorator is an ast.Call: walked on its own
                exprs = [d for d in node.decorator_list if not isinstance(d, ast.Call)]
            elif isinstance(node, ast.Call):
                exprs = [node]
            for expr in exprs:
                what = _unbounded_cache(module, expr)
                if what is None or module.allows(expr, "module-state"):
                    continue
                yield self.violation(
                    module,
                    expr.lineno,
                    f"{what} never forgets: what it memoizes lives as "
                    f"long as the process — bound it or memoize on an "
                    f"object the caller owns",
                )


# ---------------------------------------------------------------------------
# R9: gc-policy
# ---------------------------------------------------------------------------

#: The one module that sets collector policy (Scenario.execute).
GC_POLICY_OWNER = f"{SRC}/scenarios/base.py"

_GC_POLICY_CALLS = {
    f"gc.{fn}"
    for fn in ("collect", "disable", "enable", "freeze", "unfreeze", "set_threshold")
}


@register_rule
class GcPolicy(Rule):
    """Only Scenario.execute sets cyclic-GC policy."""

    spec = RuleSpec(
        name="gc-policy",
        summary="gc.collect / disable / enable / freeze / unfreeze / "
        "set_threshold are banned in src/repro outside scenarios/base.py",
        rationale="A run makes no garbage cycles, so Scenario.execute "
        "pauses the collector from build to verdict and runs one "
        "generation-1 pass on entry.  A stray collection per session or "
        "per sweep cell re-walks the whole live heap (a full pass on "
        "entry measured +12% on scenario_catalogue); a second disable or "
        "freeze elsewhere fights that policy or clobbers a caller's own.",
        scope="src/repro/ except src/repro/scenarios/base.py (reads such "
        "as gc.isenabled and gc.get_objects stay allowed)",
        pragma=None,
        fix="Leave collector policy to Scenario.execute; a caller that "
        "wants its own sets it around the call, outside src/repro.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(SRC):
            if module.rel == GC_POLICY_OWNER:
                continue
            for call, _stmt in module.calls_with_statements():
                name = module.qualified_call(call)
                if name in _GC_POLICY_CALLS:
                    yield self.violation(
                        module,
                        call.lineno,
                        f"{name}() outside {GC_POLICY_OWNER} — "
                        f"Scenario.execute owns collector policy",
                    )


# ---------------------------------------------------------------------------
# R10: pointer-read
# ---------------------------------------------------------------------------

#: The modules that decide which hierarchy level answers a window.
POINTER_READ_OWNERS = (f"{SRC}/core/pointer.py", f"{SRC}/switchd/agent.py")


@register_rule
class PointerRead(Rule):
    """Only the store and the switch agent pick the level that answers."""

    spec = RuleSpec(
        name="pointer-read",
        summary="snapshots_covering / epoch_status calls are banned in "
        "src/repro outside core/pointer.py and switchd/agent.py",
        rationale="§4.1.1: a window is read from the finest level that "
        "still holds it, then from the pushed history.  A caller that "
        "reads one level's sets itself answers \"no hosts\" once that "
        "level has recycled the window.",
        scope="src/repro/ except src/repro/core/pointer.py and "
        "src/repro/switchd/agent.py",
        pragma=None,
        fix="Read through SwitchAgent.best_effort_snapshots (or "
        "Analyzer.hosts_for, which calls it).",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(SRC):
            if module.rel in POINTER_READ_OWNERS:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", None)
                if name in ("snapshots_covering", "epoch_status"):
                    yield self.violation(
                        module,
                        node.lineno,
                        f".{name}() outside the switch agent — "
                        f"read through SwitchAgent.best_effort_snapshots",
                    )


# ---------------------------------------------------------------------------
# R11: sim-clock
# ---------------------------------------------------------------------------

#: The one module that moves the simulated clock.
SIM_CLOCK_OWNER = f"{SRC}/simnet/engine.py"


def _attribute_stores(node: ast.AST) -> Iterator[ast.Attribute]:
    """Every ``x.attr`` (or ``x.attr[k]``) an assignment writes, unpacked too."""
    if isinstance(node, ast.Assign):
        targets: list[ast.expr] = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return
    while targets:
        target = targets.pop()
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            yield target
        elif isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)


@register_rule
class SimClock(Rule):
    """Only the engine writes a simulator's clock."""

    spec = RuleSpec(
        name="sim-clock",
        summary="assignments to a `.now` attribute (and setattr(x, "
        "\"now\", ...)) are banned in src/repro outside simnet/engine.py",
        rationale="Simulator.now is a plain attribute, read on every hop "
        "without a call, so no read-only property stops a write.  "
        "Only Simulator.run may move it, and only forward: the "
        "transmitter's `now >= busy_until` test in simnet/link.py and "
        "every timer assume a monotone clock.",
        scope="src/repro/ except src/repro/simnet/engine.py",
        pragma=None,
        fix="Advance time by running the simulator (Simulator.run with "
        "`until`), or schedule the work at the time it needs.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(SRC):
            if module.rel == SIM_CLOCK_OWNER:
                continue
            for node in ast.walk(module.tree):
                lines = [t.lineno for t in _attribute_stores(node)
                         if t.attr == "now"]
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "setattr"
                        and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)
                        and node.args[1].value == "now"):
                    lines.append(node.lineno)
                for line in sorted(lines):
                    yield self.violation(
                        module,
                        line,
                        f"writes .now outside {SIM_CLOCK_OWNER} — only "
                        f"Simulator.run moves the simulated clock",
                    )


# ---------------------------------------------------------------------------
# R12: test-only
# ---------------------------------------------------------------------------

#: Where a name counts as used: the program, its tools, its benchmarks
#: and its examples.  ``tests/`` is deliberately absent.
TEST_ONLY_SEARCH = ("src", "tools", "benchmarks", "examples")

#: A string made only of identifiers (``"ingest flows_through"``,
#: ``"hostd.store"``) names code, as the ledger's trace rows do.
_IDENTIFIER_STRING = re.compile(r"[A-Za-z_]\w*(?:[\s.]+[A-Za-z_]\w*)*")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring constants in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _is_export_list(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _name_sites(module: Module) -> Iterator[tuple[str, int]]:
    """Every (name, line) ``module`` mentions outside docstrings.

    A package ``__init__.py``'s re-exports (its relative imports and
    ``__all__``) and every ``__all__`` list are not uses.
    """
    docstrings = _docstrings(module.tree)
    package_init = module.rel.endswith("__init__.py")
    skipped: set[int] = set()
    for node in ast.walk(module.tree):
        if id(node) in skipped:
            continue
        if _is_export_list(node) or (
            package_init and isinstance(node, ast.ImportFrom) and node.level
        ):
            skipped.update(id(n) for n in ast.walk(node))
            continue
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            yield node.id, line
        elif isinstance(node, ast.Attribute):
            yield node.attr, line
        elif isinstance(node, ast.alias):
            for part in (*node.name.split("."), node.asname):
                if part:
                    yield part, line
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, line
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _IDENTIFIER_STRING.fullmatch(node.value.strip())
        ):
            for part in re.split(r"[\s.]+", node.value.strip()):
                yield part, line


def _is_registered(node: ast.AST) -> bool:
    """Decorated with a registry's ``register*`` (the registry calls it)."""
    for dec in getattr(node, "decorator_list", ()):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = getattr(target, "id", None) or getattr(target, "attr", "")
        if name.startswith("register"):
            return True
    return False


def _header_lines(node: ast.AST) -> range:
    """The decorator, signature and class lines a pragma may sit on."""
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return range(first, max(node.lineno, node.body[0].lineno - 1) + 1)


def _is_class_var(annotation: ast.expr) -> bool:
    """``ClassVar[...]`` / ``KW_ONLY``: annotations that make no field."""
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    name = getattr(target, "id", None) or getattr(target, "attr", "")
    return name in ("ClassVar", "KW_ONLY")


def _fields(node: ast.ClassDef) -> Iterator[tuple[str, str, ast.stmt]]:
    """``(kind, name, statement)`` of each dataclass field and each
    ``__slots__`` entry ``node`` declares."""
    dataclass = "dataclass" in _decorator_names(node)
    for stmt in node.body:
        if (
            dataclass
            and isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not _is_class_var(stmt.annotation)
        ):
            yield "field", stmt.target.id, stmt
        elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            value = stmt.value
            entries = (
                value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
            )
            for entry in entries:
                if isinstance(entry, ast.Constant) and isinstance(entry.value, str):
                    yield "slot", entry.value, stmt


@register_rule
class TestOnly(Rule):
    """Every src/repro definition has a caller outside tests/."""

    spec = RuleSpec(
        name="test-only",
        summary="a def, class, dataclass field or `__slots__` entry in "
        "src/repro whose name appears nowhere in src/, tools/, "
        "benchmarks/ or examples/ but its own definition",
        rationale="Code that only tests reach is scaffolding the program "
        "pays for in lines, review and per-object state without "
        "running it: a disk spill no run turned on, a rule-table model "
        "every deployment built and nobody read, a wire format nothing "
        "sent, a per-packet id field only tests compared.  Tests pin "
        "behaviour the program has; they are not its callers.",
        scope="definitions in src/repro/ — defs, classes, dataclass "
        "fields and string `__slots__` entries (dunders and "
        "register*-decorated ones exempt); uses are AST names, "
        "attributes, import aliases, "
        "keywords and identifier-only strings in src/ (less package "
        "re-exports), tools/, benchmarks/ and examples/ — never "
        "docstrings, comments or tests/",
        pragma="test-only",
        fix="Delete it (and its tests), or give it a caller on purpose; "
        "a definition whose caller is planned carries the pragma on its "
        "def or class line, which also covers a class's methods and "
        "fields, or on the field's own line.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        wide = project.widened(TEST_ONLY_SEARCH)
        sites: dict[str, list[tuple[str, int]]] = {}
        for module in wide.modules.values():
            for name, line in _name_sites(module):
                sites.setdefault(name, []).append((module.rel, line))
        for module in project.under(SRC):
            yield from self._check_body(module, module.tree.body, sites, False)

    def _check_body(
        self,
        module: Module,
        body: list[ast.stmt],
        sites: dict[str, list[tuple[str, int]]],
        allowed: bool,
    ) -> Iterator[Violation]:
        for node in body:
            if not isinstance(node, _DEFS):
                continue
            exempt = allowed or any(
                "test-only" in module.pragmas.get(line, ())
                for line in _header_lines(node)
            )
            if not (exempt or _is_dunder(node.name) or _is_registered(node)):
                if self._unused(module, node.name, node, sites):
                    kind = "class" if isinstance(node, ast.ClassDef) else "def"
                    yield self._flag(module, node.lineno, kind, node.name)
            if isinstance(node, ast.ClassDef) and not exempt:
                for kind, name, stmt in _fields(node):
                    if not (
                        _is_dunder(name)
                        or "test-only" in module.pragmas.get(stmt.lineno, ())
                        or not self._unused(module, name, stmt, sites)
                    ):
                        yield self._flag(
                            module, stmt.lineno, kind, f"{node.name}.{name}"
                        )
            yield from self._check_body(module, node.body, sites, exempt)

    @staticmethod
    def _unused(
        module: Module,
        name: str,
        node: ast.AST,
        sites: dict[str, list[tuple[str, int]]],
    ) -> bool:
        """No site names ``name`` outside ``node``'s own lines."""
        first = getattr(node, "lineno", 0)
        end = getattr(node, "end_lineno", None) or first
        return not any(
            rel != module.rel or not first <= line <= end
            for rel, line in sites.get(name, ())
        )

    def _flag(self, module: Module, line: int, kind: str, name: str) -> Violation:
        return self.violation(
            module,
            line,
            f"{kind} {name} is named nowhere outside its own definition "
            f"but in tests/ — delete it or give it a caller",
        )


# ---------------------------------------------------------------------------
# R13: record-write
# ---------------------------------------------------------------------------

#: The one module that writes a host flow record, and the record fields
#: (fold state) no other module may assign.
RECORD_OWNER = f"{SRC}/hostd/records.py"
RECORD_FIELDS = frozenset({
    "_update_seq", "last_seen", "first_seen", "bytes_by_epoch",
    "switch_path", "_shape", "_span_lo", "_span_hi", "_folded",
    "_tag", "_tag_epoch", "_tag_version", "_tag_observed"})


@register_rule
class RecordWrite(Rule):
    """Only the record store writes a flow record's fold state."""

    spec = RuleSpec(
        name="record-write",
        summary="assignments to a FlowRecord's fold state (_update_seq, "
        "first/last_seen, bytes_by_epoch, the shape switch_path/_shape, "
        "the span _span_lo/_span_hi, _folded, _tag*) are banned in "
        "src/repro outside hostd/records.py",
        rationale="The store folds a packet whose header a record folded "
        "last without parsing it (FlowRecordStore.refold); that is exact "
        "only while every write to a record goes through the store, so a "
        "second fast fold elsewhere cannot fork it.",
        scope="src/repro/ except src/repro/hostd/records.py",
        pragma=None,
        fix="Fold through FlowRecordStore.ingest / refold, or add a store "
        "method.",
    )

    def check(self, project: Project) -> Iterator[Violation]:
        for module in project.under(SRC):
            if module.rel == RECORD_OWNER:
                continue
            for node in ast.walk(module.tree):
                for target in _attribute_stores(node):
                    if target.attr in RECORD_FIELDS:
                        yield self.violation(module, target.lineno, (
                            f"writes .{target.attr} outside {RECORD_OWNER} "
                            "— only the record store writes a flow record"))
