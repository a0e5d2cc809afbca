"""What every op must output, and the fingerprint of what it simulated.

The expected ``(problem, suspect, status)`` lists are what the commit
that introduced the ledger produces; a failed check feeds ``ok_share``
and the run's ``failed`` count, nothing is asserted away.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

Verdicts = list[tuple[str, Any, str]]

#: the ten scenarios of ``scenario_catalogue``, in the order they run
CATALOGUE = ("cascades", "contention", "gray-failure", "incast",
             "link-flap", "load-imbalance", "microburst", "multi-fault",
             "polarization", "red-lights")

_EXPECTED: dict[str, Verdicts] = {
    "cascades": [("traffic-cascade", None, "complete")],
    "contention": [("priority-contention", None, "complete")],
    "incast": [("incast", "leaf0", "complete")],
    "link-flap": [("link-flap", "S1-SPA", "complete")],
    "load-imbalance": [("load-imbalance", None, "complete")],
    "microburst": [("microburst-contention", None, "complete")],
    "multi-fault": [("gray-failure", "leaf1", "complete"),
                    ("ecmp-polarization", "spine1", "complete"),
                    ("multi-fault", None, "complete")],
    "polarization": [("ecmp-polarization", "spine0", "complete")],
    "red-lights": [("too-many-red-lights", None, "complete")],
}


def expected_verdicts(scenario: str, knobs: dict) -> Verdicts:
    if scenario == "gray-failure":
        # the even-indexed half of the flows is dropped at S3; each gets
        # its own diagnosis
        n_victims = (knobs.get("n_flows", 4) + 1) // 2
        return [("gray-failure", "S3", "complete")] * n_victims
    return _EXPECTED[scenario]


def verdict_tuples(result: Any) -> Verdicts:
    return [(v.problem, v.suspect, v.status) for v in result.verdicts]


def check_scenario(scenario: str, knobs: dict, result: Any) -> list[str]:
    """Messages for every way ``result`` misses its expected output."""
    got, want = verdict_tuples(result), expected_verdicts(scenario, knobs)
    if got == want:
        return []
    return [f"{scenario}: verdicts {_brief(got)} != expected {_brief(want)}"]


def check_top_k(switch: str, window: tuple[int, int],
                got: list, oracle: list) -> list[str]:
    """A whole-run top-k through the directory must equal PathDump's
    ask-everyone answer on the same window."""
    def key(rows: list) -> list:
        return [(s.flow, s.bytes) for s in rows]
    if key(got) == key(oracle):
        return []
    return [f"top-k through {switch} over epochs {window}: "
            f"{len(got)} rows differ from the PathDump oracle"]


def _brief(verdicts: Verdicts) -> str:
    if len(verdicts) > 4 and len(set(verdicts)) == 1:
        return f"{len(verdicts)} x {verdicts[0]}"
    return str(verdicts)


def fingerprint(parts: Iterable[Any]) -> str:
    """A short hash of simulated statistics; equal inputs, equal hash."""
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()
