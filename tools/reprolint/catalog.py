"""Render the rule registry as the docs/LINTING.md catalogue.

Same single-source-of-truth idiom as the scenario/fault/experiment
catalogues: ``python -m tools.reprolint --list`` and the generated page
both read :data:`tools.reprolint.RULES`, so the documentation cannot
drift from the rules that actually run.
"""

from __future__ import annotations

from .. import reach
from . import RULES, RuleSpec
from . import rules as _rules  # noqa: F401  (registers the catalogue)

_HEADER = """\
# Linting: the reprolint rule catalogue

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with: python tools/gen_docs.py lint -->

`tools/reprolint` is an AST-based checker for invariants no stock
linter sees: determinism (simulated time, seeded RNG streams), the
registry contracts scenarios/faults/experiments share, and the typed core's
annotations.  It never imports the code it checks.

```console
python -m tools.reprolint                # lint the tree (src/)
python -m tools.reprolint --list         # this catalogue, from the CLI
python -m tools.reprolint --rule NAME    # one rule only
python -m tools.reprolint --fix-baseline # accept current violations
```

CI runs it as a blocking `static-analysis` job next to mypy over the
typed core; the tier-1 suite repeats the whole-tree run
(`tests/reprolint/test_tree_clean.py`) so a violation fails in seconds
locally.

Two escape hatches, both deliberately loud:

- **pragma** — `# reprolint: allow[<token>]` on the offending line,
  only for rules that declare a token (see each rule below);
- **baseline** — `.reprolint-baseline.json`, written by
  `--fix-baseline`, a ratchet for onboarding a new rule to a tree that
  does not pass it yet.  Stale entries fail the run, so it only ever
  shrinks; the committed tree carries none (enforced by a tier-1 test).

## Rules
"""


def _spec_markdown(spec: RuleSpec) -> str:
    lines = [f"### `{spec.name}`", "", spec.summary, ""]
    lines.append(f"- **Scope:** {spec.scope}")
    if spec.pragma:
        lines.append(
            f"- **Pragma:** `# reprolint: allow[{spec.pragma}]` at "
            f"declared exception sites"
        )
    else:
        lines.append("- **Pragma:** none (no inline exceptions)")
    lines.append(f"- **Why:** {spec.rationale}")
    if spec.fix:
        lines.append(f"- **Fix:** {spec.fix}")
    lines.append("")
    return "\n".join(lines)


def rules_markdown() -> str:
    parts = [_HEADER]
    for spec in RULES.specs():
        parts.append(_spec_markdown(spec))
    census = reach.__doc__.split("\n", 1)[1].strip()
    reasons = "".join(f"- `{name}`: {why}\n" for name, why in reach.REASONS.items())
    parts.append(f"## Reach census\n\n{census}\n\nReasons:\n\n{reasons}")
    parts.append(
        "## Adding a rule\n\n"
        "Subclass `Rule` in `tools/reprolint/rules.py`, give it a\n"
        "`RuleSpec`, and decorate with `@register_rule` — the CLI,\n"
        "this page, and the fixture-coverage test pick it up from the\n"
        "registry.  Commit one violating and one clean fixture tree\n"
        "under `tests/reprolint/fixtures/<rule>/` (the\n"
        "`test_every_rule_has_fixture_coverage` test fails until you\n"
        "do), then regenerate this page:\n"
        "`python tools/gen_docs.py lint`.\n"
    )
    return "\n".join(parts)
