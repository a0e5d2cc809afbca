"""reprolint: AST-based invariant checks no stock linter can see.

The repo's correctness story rests on invariants that live *between*
modules — bit-identical seeded RNG streams, simulated-time discipline,
the decorator-registry contracts scenarios/sweeps/faults share, the
typed core's annotations.  Each one is encoded here as a registered
:class:`Rule` (the same decorator-registry idiom as the scenario, fault
and sweep registries) and enforced by a blocking CI job::

    python -m tools.reprolint                # lint the tree (src/)
    python -m tools.reprolint --list         # rule catalogue
    python -m tools.reprolint --fix-baseline # accept current violations

The rule catalogue is rendered into ``docs/LINTING.md`` by
``tools/gen_docs.py lint`` from the same :class:`RuleSpec` metadata
``--list`` prints — one source of truth, like every other registry.

A violation can be suppressed two ways, both deliberately loud:

* a ``# reprolint: allow[<token>]`` pragma on the offending line, for
  rules that declare a pragma token (e.g. ``wall-clock`` measurement
  sites in the sweep/scenario runners);
* a baseline entry (``.reprolint-baseline.json`` at the project root,
  written by ``--fix-baseline``) — a ratchet for onboarding a rule to a
  tree that does not yet pass it.  Stale entries fail the run, so the
  baseline only ever shrinks.  The committed tree carries none.
"""

from __future__ import annotations

import abc
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterator, Optional

from .model import Module, Project

__all__ = [
    "BASELINE_NAME",
    "RULES",
    "LintError",
    "Module",
    "Project",
    "Rule",
    "RuleRegistry",
    "RuleSpec",
    "Violation",
    "load_baseline",
    "register_rule",
    "run_lint",
    "write_baseline",
]

#: Baseline file name, resolved against the lint root.
BASELINE_NAME = ".reprolint-baseline.json"


class LintError(Exception):
    """Raised for registry misuse or invalid lint configuration."""


@dataclass(frozen=True)
class RuleSpec:
    """Registry metadata for one rule.

    The single source of truth ``--list`` and the generated
    ``docs/LINTING.md`` catalogue both render.

    Attributes
    ----------
    name:
        Registry key, kebab-case, unique.
    summary:
        One-line description of the invariant.
    rationale:
        Why the invariant matters — what breaks when it is violated.
    scope:
        Human-readable description of the files the rule examines.
    pragma:
        ``allow[<token>]`` token honored at declared exception sites,
        or None when the rule admits no inline exceptions.
    fix:
        How to repair a violation.
    """

    name: str
    summary: str
    rationale: str
    scope: str
    pragma: Optional[str] = None
    fix: str = ""


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what is wrong."""

    rule: str
    rel: str
    line: int
    message: str

    def key(self) -> tuple[str, str, str]:
        """Baseline identity — line numbers churn, messages rarely do."""
        return (self.rule, self.rel, self.message)

    def render(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


class Rule(abc.ABC):
    """Base class all rules implement (one ``check`` pass per run)."""

    spec: ClassVar[RuleSpec]

    @abc.abstractmethod
    def check(self, project: Project) -> Iterator[Violation]:
        """Yield every violation found in ``project``."""

    def violation(self, module: Module, line: int, message: str) -> Violation:
        return Violation(
            rule=self.spec.name, rel=module.rel, line=line, message=message
        )


class RuleRegistry:
    """Name -> rule-class registry (same idiom as the fault registry)."""

    def __init__(self) -> None:
        self._classes: dict[str, type[Rule]] = {}

    def register(self, cls: type[Rule]) -> type[Rule]:
        """Class decorator: add ``cls`` under its spec name."""
        spec = getattr(cls, "spec", None)
        if not isinstance(spec, RuleSpec):
            raise LintError(f"{cls.__name__} must define a RuleSpec 'spec'")
        if spec.name in self._classes:
            raise LintError(f"duplicate rule name {spec.name!r}")
        self._classes[spec.name] = cls
        return cls

    def get(self, name: str) -> type[Rule]:
        try:
            return self._classes[name]
        except KeyError:
            raise LintError(
                f"unknown rule {name!r}; known: {', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._classes)

    def specs(self) -> list[RuleSpec]:
        return [self._classes[n].spec for n in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


#: The process-wide registry every rule registers into.
RULES = RuleRegistry()
register_rule = RULES.register


def run_lint(
    root: Path,
    paths: tuple[str, ...] = ("src",),
    rules: Optional[tuple[str, ...]] = None,
) -> list[Violation]:
    """Lint ``paths`` under ``root`` with every (or the named) rule(s).

    The programmatic entry the CLI, the tier-1 tree-clean test, and the
    per-rule fixture tests all share.  Violations come back sorted by
    location for stable output and baselines.
    """
    from . import rules as _rules  # noqa: F401  (registers the catalogue)

    project = Project.load(root, paths)
    names = list(rules) if rules is not None else RULES.names()
    found: list[Violation] = []
    for name in names:
        found.extend(RULES.get(name)().check(project))
    found.sort(key=lambda v: (v.rel, v.line, v.rule, v.message))
    return found


def load_baseline(root: Path) -> set[tuple[str, str, str]]:
    """The accepted-violation keys recorded at ``root``, if any."""
    path = root / BASELINE_NAME
    if not path.exists():
        return set()
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LintError(f"unreadable baseline {path}: {exc}") from exc
    entries = doc.get("suppressions", []) if isinstance(doc, dict) else []
    return {
        (e["rule"], e["path"], e["message"])
        for e in entries
        if isinstance(e, dict) and {"rule", "path", "message"} <= set(e)
    }


def write_baseline(root: Path, violations: list[Violation]) -> Path:
    """Record ``violations`` as the accepted baseline (``--fix-baseline``)."""
    path = root / BASELINE_NAME
    doc = {
        "comment": (
            "reprolint baseline: accepted pre-existing violations. "
            "Regenerate with: python -m tools.reprolint --fix-baseline. "
            "Entries must only ever be removed."
        ),
        "suppressions": [
            {"rule": v.rule, "path": v.rel, "message": v.message} for v in violations
        ],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path
