"""Render the fault catalogue from the registry metadata.

``docs/FAULTS.md`` is generated from the same :class:`FaultSpec`
objects the CLI ``faults list`` command prints — one source of truth.
Refresh the checked-in page with::

    python tools/gen_docs.py faults

A tier-1 test asserts the file matches this renderer's output, so a
registry change without a regenerated page fails CI.
"""

from __future__ import annotations

from .base import FAULTS, FaultSpec

_PREAMBLE = """\
# Fault catalog

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_docs.py faults -->

Every fault is a registered plugin implementing the four-verb protocol
(schedule → inject → heal → describe) described in
[ARCHITECTURE.md](ARCHITECTURE.md#the-fault-layer-reprofaults).
Scenarios compose faults through a `FaultPlan` — N faults, independent
schedules, one simulation — instead of open-coding injector callbacks;
the `multi-fault` scenario ([SCENARIOS.md](SCENARIOS.md)) composes any
two of the diagnosable ones and checks the analyzer attributes each
independently.

List the registered faults with

```sh
python -m repro.cli faults list
```

Every fault accepts the shared scheduling params `start` (seconds at
which it injects, default 0.0) and `stop` (seconds at which it heals,
default never) on top of the params tabled below.
"""


def _spec_markdown(spec: FaultSpec) -> str:
    lines = [f"## `{spec.name}`", "", spec.summary, ""]
    lines.append(f"- **Degrades:** {spec.degrades}")
    lines.append(f"- **Diagnosed by:** {spec.diagnosed_by}")
    if spec.params:
        lines.append("")
        lines.append("| param | default | description |")
        lines.append("|---|---|---|")
        for name, param in spec.params.items():
            lines.append(f"| `{name}` | `{param.default!r}` | {param.help} |")
    return "\n".join(lines) + "\n"


def faults_markdown() -> str:
    """The full ``docs/FAULTS.md`` body."""
    sections = [_PREAMBLE]
    sections.extend(_spec_markdown(cls.spec) for cls in FAULTS.values())
    return "\n".join(sections)
