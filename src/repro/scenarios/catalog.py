"""Render the scenario catalogue from the registry metadata.

``docs/SCENARIOS.md`` is generated from the same :class:`ScenarioSpec`
objects the CLI ``list`` command prints — one source of truth.  Refresh
the checked-in page with::

    python tools/gen_docs.py scenarios

A tier-1 test asserts the file matches this renderer's output, so a
registry change without a regenerated page fails CI.
"""

from __future__ import annotations

from .base import REGISTRY, ScenarioSpec

_PREAMBLE = """\
# Scenario catalog

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_docs.py scenarios -->

Every scenario is a registered plugin implementing the four-phase
protocol (build → run → collect → diagnose) described in
[ARCHITECTURE.md](ARCHITECTURE.md).  Run any of them with

```sh
python -m repro.cli run <name> [--knob key=value ...]
```

and list them with `python -m repro.cli list`.  Historical `fig*` ids
remain as aliases, both as `run fig3`-style arguments and as standalone
CLI subcommands.
"""


def _spec_markdown(spec: ScenarioSpec) -> str:
    lines = [f"## `{spec.name}`", "", spec.summary, ""]
    lines.append(f"- **Reproduces / models:** {spec.paper_ref}")
    lines.append(f"- **Expected diagnosis:** {spec.expected_diagnosis}")
    states = ", ".join(f"`{s}`" for s in spec.verdict_states)
    lines.append(f"- **Verdict states (see "
                 f"[DIAGNOSIS.md](DIAGNOSIS.md)):** {states}")
    if spec.faults:
        fault_str = ", ".join(f"`{f}`" for f in spec.faults)
        lines.append(f"- **Injects (fault registry, see "
                     f"[FAULTS.md](FAULTS.md)):** {fault_str}")
    if spec.aliases:
        alias_str = ", ".join(f"`{a}`" for a in spec.aliases)
        lines.append(f"- **Aliases:** {alias_str}")
    lines.append(f"- **Run:** `{spec.cli_example}`")
    if spec.knobs:
        lines.append("")
        lines.append("| knob | default | description |")
        lines.append("|---|---|---|")
        for name, knob in spec.knobs.items():
            lines.append(f"| `{name}` | `{knob.default!r}` "
                         f"| {knob.help} |")
    return "\n".join(lines) + "\n"


def catalog_markdown() -> str:
    """The full ``docs/SCENARIOS.md`` body."""
    sections = [_PREAMBLE]
    sections.extend(_spec_markdown(cls.spec) for cls in REGISTRY.values())
    return "\n".join(sections)
