"""Debugging applications (§5 and beyond).

Each diagnosis takes the analyzer and an alert (or a suspect switch)
and returns a verdict with the latency breakdown the paper plots.

The four §5 diagnoses, one per subsection:

* :func:`diagnose_contention` — §5.1 "too much traffic": who contended
  with the victim at the alerted switch, and was it priority-based or a
  microburst?  (Fig 7's four phases: detection, alert, pointer
  retrieval, diagnosis.)
* :func:`diagnose_red_lights` — §5.2: per-switch culprits along the
  victim's path; the victim must share ≥ 1 epoch with each culprit at
  the corresponding switch.
* :func:`diagnose_cascade` — §5.3: recursive re-examination — when a
  culprit has middle priority, walk *its* path to find who delayed it.
* :func:`diagnose_load_imbalance` — §5.4: flow-size distributions per
  egress interface of a suspect switch (Fig 8's diagnosis latency).

Four more built on the same primitives, backing the scenario registry's
extended fault catalogue (§2.4's "many other problems" claim):

* :func:`diagnose_incast` — N-to-1 synchronized fan-in: the culprits
  found at the alerted switch all target the victim's own destination.
* :func:`diagnose_gray_failure` — silent packet drops, localized to the
  faulty hop via :func:`repro.analyzer.netdebug.localize_packet_drops`.
* :func:`diagnose_polarization` — ECMP hash polarization: the per-egress
  flow census at a multipath switch concentrates on one egress.
* :func:`diagnose_link_flap` — flap churn: flows behind a branch switch
  oscillate between egresses, and one egress has no stable users.

Every alert-driven app reads its evidence from one §3 round,
:func:`_contenders` (alert → pointers → hosts → the records that shared
an epoch with the victim at that switch); every switch-driven census
app from one §5.4 query, :func:`_egress_census`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.epoch import EpochRange
from ..core.pointer import PointerSnapshot
from ..directory import DirectorySet, LshDirectorySet, decode_directory_set
from ..hostd.triggers import VictimAlert, alert_tuples_from_record
from ..rpc.fabric import Breakdown
from ..simnet.packet import FlowKey
from .analyzer import Analyzer
from .netdebug import DropLocalization, localize_packet_drops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import DiagnosisSession

#: Fig 7's detection phase: the 1 ms trigger window bounds it.
DETECTION_S = 1e-3
#: §5.3: how many culprit paths a cascade climbs before it stops.
CASCADE_DEPTH = 4
#: a flap needs at least this many flows that changed egress ...
FLAP_MIN_REROUTED = 2
#: ... and one egress whose users churned at least this often.
FLAP_CHURN_THRESHOLD = 0.6
#: co-suspect switches named on a gray-failure verdict.
CO_SUSPECTS = 3


@dataclass
class Culprit:
    """One contending flow implicated in a diagnosis."""

    flow: FlowKey
    host: str                     # the end-host whose records identified it
    switch: str                   # where it contended with the victim
    priority: int
    bytes: int
    shared_epochs: Optional[EpochRange] = None


@dataclass
class Verdict:
    """Outcome of a diagnosis, with the measured latency breakdown."""

    problem: str
    victim: Optional[FlowKey]
    culprits: list[Culprit] = field(default_factory=list)
    breakdown: Breakdown = field(default_factory=Breakdown)
    hosts_consulted: list[str] = field(default_factory=list)
    narrative: str = ""
    cascade_chain: list[FlowKey] = field(default_factory=list)
    imbalanced: bool = False
    distribution: dict[str, list[int]] = field(default_factory=dict)
    #: The network element the diagnosis points at, when there is one:
    #: a switch (gray failure), an egress switch (polarization, incast
    #: convergence point), or an "A-B" link (flap).
    suspect: Optional[str] = None
    #: Online-diagnosis state (:mod:`repro.analyzer.session`):
    #: ``complete`` | ``degraded`` | ``stale``.  Post-mortem diagnoses
    #: keep the default — with the whole run's evidence at rest, their
    #: answer is by construction complete.
    status: str = "complete"
    #: hosts that failed to answer during the session (evidence gaps);
    #: non-empty exactly when ``status == "degraded"``
    missing_hosts: list[str] = field(default_factory=list)
    #: evidence label: True when the switch pointers behind this verdict
    #: came from a lossy sketch backend (:mod:`repro.directory`) — the
    #: host lists consulted were *supersets* of the truth, so the
    #: conclusion stands but may have cost extra host queries
    approx: bool = False
    #: switches whose directory contents most resemble the suspect's
    #: over the diagnosis window (:func:`rank_co_suspects`), most
    #: similar first — empty when no suspect was localized
    co_suspects: list[str] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        return self.breakdown.total


def _stamp_approx(analyzer: Analyzer, verdict: Verdict) -> Verdict:
    """Label the verdict when sketch directories supplied its pointers."""
    verdict.approx = analyzer.directory_approx
    return verdict


def _overlap(a: Optional[EpochRange],
             b: Optional[EpochRange]) -> Optional[EpochRange]:
    if a is None or b is None or not a.intersects(b):
        return None
    return EpochRange(max(a.lo, b.lo), min(a.hi, b.hi))


# ---------------------------------------------------------------------------
# the shared evidence primitives
# ---------------------------------------------------------------------------

def _alerted(analyzer: Analyzer) -> Breakdown:
    """Fig 7's first two phases: trigger detection, alert + ack."""
    bd = Breakdown()
    bd.add("problem_detection", DETECTION_S)
    bd.add("alert_to_analyzer", analyzer.rpc.alert_cost())
    return bd


def _contenders(analyzer: Analyzer, alert: VictimAlert, bd: Breakdown, *,
                skip_dst: bool = True
                ) -> tuple[list[Culprit], set[str], Breakdown]:
    """The §3 round: alert → pointers → hosts → epoch-sharing culprits.

    The victim's destination is not asked unless ``skip_dst=False`` (an
    incast's culprits all terminate there).  Returns the culprits in
    discovery order, the hosts consulted, and ``bd`` plus the pointer
    retrieval and one ``diagnosis`` phase.
    """
    per_switch, ptr_bd = analyzer.locate_relevant_hosts(alert)
    bd = bd.merged(ptr_bd)
    culprits: list[Culprit] = []
    consulted: set[str] = set()
    diag_bd = Breakdown()
    for entry in per_switch:
        hosts = ([h for h in entry.hosts if h != alert.flow.dst]
                 if skip_dst else entry.hosts)
        if not hosts:
            continue
        consulted.update(hosts)
        found, q_bd = analyzer.contending_flows(hosts, entry.switch,
                                                entry.epochs, alert)
        diag_bd = diag_bd.merged(q_bd)
        for host, summary in found:
            shared = _overlap(summary.epochs_at(entry.switch), entry.epochs)
            if shared is None:
                continue
            culprits.append(Culprit(
                flow=summary.flow, host=host, switch=entry.switch,
                priority=summary.priority, bytes=summary.bytes,
                shared_epochs=shared))
    bd.add("diagnosis", diag_bd.total)
    return culprits, consulted, bd


def _egress_census(analyzer: Analyzer, switch: str, epochs: EpochRange
                   ) -> tuple[list[str], dict[str, list[int]], Breakdown]:
    """The §5.4 query: flow sizes per egress of ``switch`` over ``epochs``.

    Pulls the switch's pointer (the paper fetches "the most recent 1
    sec") and asks every host it names for its per-egress flow sizes.
    Returns the hosts consulted, the merged ``{egress: [sizes]}`` map,
    and the pointer-retrieval + diagnosis breakdown.
    """
    bd = Breakdown()
    bd.add("pointer_retrieval", analyzer.rpc.pointer_pull_cost(1))
    hosts = analyzer.hosts_for(switch, epochs)
    results, q_bd = analyzer.consult_hosts(
        hosts,
        lambda agent: agent.query.flow_size_distribution(switch=switch,
                                                         epochs=epochs))
    bd.add("diagnosis", q_bd.total)
    merged: dict[str, list[int]] = {}
    for res in results.values():
        for egress, sizes in res.payload.items():
            merged.setdefault(egress, []).extend(sizes)
    return hosts, merged, bd


def _victim_priority(analyzer: Analyzer, alert: VictimAlert) -> int:
    """The victim's priority, read where its records live: at its
    destination, whichever host raised the alert."""
    agent = analyzer.host_agents.get(alert.flow.dst)
    rec = agent.store.get(alert.flow) if agent is not None else None
    return rec.priority if rec is not None else 0


def _contention_verdict(analyzer: Analyzer, alert: VictimAlert,
                        culprits: list[Culprit], consulted: set[str],
                        bd: Breakdown, *, preface: str = "") -> Verdict:
    """§5.1's call: priority contention if any culprit outranks the
    victim, an equal-priority microburst otherwise."""
    victim_prio = _victim_priority(analyzer, alert)
    priority_based = any(c.priority > victim_prio for c in culprits)
    narrative = (
        f"{preface}{len(culprits)} flow(s) contended with "
        f"{alert.flow.pretty()}; "
        + ("high-priority traffic starved the victim"
           if priority_based else
           "equal-priority burst overflowed the queue (microburst)"))
    return _stamp_approx(analyzer, Verdict(
        problem=("priority-contention" if priority_based
                 else "microburst-contention"),
        victim=alert.flow, culprits=culprits, breakdown=bd,
        hosts_consulted=sorted(consulted), narrative=narrative))


# ---------------------------------------------------------------------------
# §5.1 too much traffic
# ---------------------------------------------------------------------------

def diagnose_contention(analyzer: Analyzer, alert: VictimAlert) -> Verdict:
    """Who contended with the victim, and was priority involved?"""
    culprits, consulted, bd = _contenders(analyzer, alert,
                                          _alerted(analyzer))
    return _contention_verdict(analyzer, alert, culprits, consulted, bd)


# ---------------------------------------------------------------------------
# §5.2 too many red lights
# ---------------------------------------------------------------------------

def diagnose_red_lights(analyzer: Analyzer,
                        alert: VictimAlert) -> Verdict:
    """Per-switch contention along the whole victim path.

    The §5.2 conclusion criterion: a culprit counts at a switch only if
    it shares at least one epochID with the victim there.
    """
    base = diagnose_contention(analyzer, alert)
    by_switch: dict[str, list[Culprit]] = {}
    for c in base.culprits:
        by_switch.setdefault(c.switch, []).append(c)
    narrative = ("; ".join(
        f"at {sw}: " + ", ".join(c.flow.pretty() for c in cs)
        for sw, cs in sorted(by_switch.items()))
        or "no contention found on the path")
    return _stamp_approx(analyzer, Verdict(
        problem="too-many-red-lights", victim=alert.flow,
        culprits=base.culprits, breakdown=base.breakdown,
        hosts_consulted=base.hosts_consulted, narrative=narrative))


# ---------------------------------------------------------------------------
# §5.3 traffic cascades
# ---------------------------------------------------------------------------

def diagnose_cascade(analyzer: Analyzer, alert: VictimAlert) -> Verdict:
    """Recursively walk culprit paths until the chain's head is found.

    §5.3: having found that middle-priority A-F collided with victim
    C-E, the analyzer "subsequently examines pointers from switches
    along the path of flow A-F in order to see whether or not the flow
    was affected by some other flows".  Each stage keeps the first
    highest-priority culprit that outranks the current flow and is not
    already in the chain, for at most :data:`CASCADE_DEPTH` stages.
    """
    chain: list[FlowKey] = [alert.flow]
    culprits: list[Culprit] = []
    consulted: set[str] = set()
    bd = _alerted(analyzer)

    current = alert
    current_prio = _victim_priority(analyzer, alert)
    for _ in range(CASCADE_DEPTH):
        found, asked, bd = _contenders(analyzer, current, bd)
        consulted |= asked
        higher = [c for c in found
                  if c.priority > current_prio and c.flow not in chain]
        if not higher:
            break
        best = max(higher, key=lambda c: c.priority)
        culprits.append(best)
        chain.append(best.flow)
        # climb: re-examine the culprit's own path via its host's record
        next_alert = _alert_for_flow(analyzer, best.flow, best.host,
                                     current.time)
        if next_alert is None:
            break
        current = next_alert
        current_prio = best.priority

    names = " <- ".join(f.pretty() for f in chain)
    return _stamp_approx(analyzer, Verdict(
        problem="traffic-cascade", victim=alert.flow,
        culprits=culprits, breakdown=bd,
        hosts_consulted=sorted(consulted), cascade_chain=chain,
        narrative=f"cascade chain: {names}"))


def _alert_for_flow(analyzer: Analyzer, flow: FlowKey, host: str,
                    t: float) -> Optional[VictimAlert]:
    """Synthesize an alert-shaped view of a non-victim flow's record."""
    agent = analyzer.host_agents.get(host)
    if agent is None:
        return None
    rec = agent.store.get(flow)
    if rec is None or not rec.switch_path:
        return None
    return VictimAlert(flow=flow, host=host, time=t, kind="re-examination",
                       tuples=alert_tuples_from_record(rec))


# ---------------------------------------------------------------------------
# §5.4 load imbalance
# ---------------------------------------------------------------------------

def diagnose_load_imbalance(analyzer: Analyzer, switch: str, *,
                            epochs: EpochRange,
                            size_threshold: int = 1_000_000) -> Verdict:
    """Compare flow-size distributions across a switch's egress sides.

    Runs the §5.4 census over the recent window and checks for a clean
    size separation.
    """
    hosts, merged, bd = _egress_census(analyzer, switch, epochs)
    imbalanced, narrative = _separation_verdict(merged, size_threshold)
    return _stamp_approx(analyzer, Verdict(
        problem="load-imbalance", victim=None, breakdown=bd,
        hosts_consulted=sorted(hosts), imbalanced=imbalanced,
        distribution=merged, narrative=narrative))


# ---------------------------------------------------------------------------
# incast (N-to-1 synchronized fan-in)
# ---------------------------------------------------------------------------

def diagnose_incast(analyzer: Analyzer, alert: VictimAlert, *,
                    min_fan_in: int = 3) -> Verdict:
    """Was the victim's collapse an N-to-1 synchronized fan-in?

    Unlike :func:`diagnose_contention`, the victim's *own destination*
    is consulted: in an incast every culprit flow terminates at the
    victim's destination, so that host holds all of their records.  The
    verdict is ``incast`` when, at some on-path switch, at least
    ``min_fan_in`` epoch-sharing culprits target the victim's
    destination; otherwise it degrades to the generic contention call.
    """
    culprits, consulted, bd = _contenders(analyzer, alert,
                                          _alerted(analyzer),
                                          skip_dst=False)
    fan_in = Counter(c.switch for c in culprits
                     if c.flow.dst == alert.flow.dst)

    if fan_in and max(fan_in.values()) >= min_fan_in:
        # Ties go to the latest on-path switch: the fan-in is visible at
        # every hop the culprits share, but the convergence point is the
        # last one before the destination.
        suspect = max(enumerate(alert.switch_path),
                      key=lambda iv: (fan_in.get(iv[1], 0), iv[0]))[1]
        n = fan_in[suspect]
        return _stamp_approx(analyzer, Verdict(
            problem="incast", victim=alert.flow, culprits=culprits,
            breakdown=bd, hosts_consulted=sorted(consulted),
            suspect=suspect,
            narrative=(f"{n} synchronized flows converged on "
                       f"{alert.flow.dst} at {suspect} "
                       f"(N-to-1 incast fan-in)")))
    # No fan-in: degrade to the §5.1 classification, reusing the
    # culprits already gathered rather than re-querying the hosts.
    return _contention_verdict(analyzer, alert, culprits, consulted, bd,
                               preface="no incast fan-in found; ")


# ---------------------------------------------------------------------------
# silent packet drops / gray failure
# ---------------------------------------------------------------------------

def diagnose_gray_failure(analyzer: Analyzer, flow: FlowKey, *,
                          silence_epochs: EpochRange) -> Verdict:
    """Localize a silent (gray) drop of ``flow`` to one hop.

    ``silence_epochs`` is the window in which the destination stopped
    seeing the flow.  The trajectory is the flow record at the
    destination host (captured while the flow was still healthy); the
    per-switch pointers over the silence window then form the spatial
    cut that :func:`~repro.analyzer.netdebug.localize_packet_drops`
    turns into a suspect hop.
    """
    agent = analyzer.host_agents.get(flow.dst)
    rec = agent.store.get(flow) if agent is not None else None
    path = list(rec.switch_path) if rec is not None else []
    loc = localize_packet_drops(analyzer, flow, path, silence_epochs)
    return _gray_verdict(analyzer, flow, loc, silence_epochs,
                         loc.breakdown, [])


def diagnose_gray_failure_online(analyzer: Analyzer, flow: FlowKey, *,
                                 silence_epochs: EpochRange,
                                 session: "DiagnosisSession"
                                 ) -> Verdict:
    """The incremental, simulated-time variant of gray-failure diagnosis.

    Run inside a bound :class:`~repro.analyzer.session.DiagnosisSession`
    (``with session:``), so every step below consumes simulated time and
    races whatever the network does next:

    1. the victim's trajectory is fetched from its destination host
       through the session (a crashed destination times out and the
       verdict degrades with the gap named, instead of erroring);
    2. the spatial cut is localized from the per-switch pointers at the
       finest hierarchy level still holding the window — the clock may
       rotate epochs out of level 1 while the pulls are in flight;
    3. one more **delta round** re-reads the destination for records
       updated while steps 1–2 ran, so evidence that arrived during the
       diagnosis (ingestion continues throughout) still reaches the
       verdict;
    4. the verdict is stamped ``complete | degraded | stale``.
    """
    bd = _alerted(analyzer)

    # step 1: trajectory from the destination's record, via the session
    results, q_bd = analyzer.consult_hosts(
        [flow.dst], lambda agent: agent.query.flow_details(flow),
        session=session)
    bd = bd.merged(q_bd)
    path: list[str] = []
    detail = results.get(flow.dst)
    if detail is not None and detail.payload is not None:
        path = list(detail.payload.switch_path)

    # step 2: spatial cut over the silence window
    loc = localize_packet_drops(analyzer, flow, path, silence_epochs)
    bd = bd.merged(loc.breakdown)

    # step 3: catch evidence that landed while steps 1-2 consumed time
    if path:
        _, d_bd = session.delta_flows([flow.dst], path[0], silence_epochs)
        bd = bd.merged(d_bd)

    return session.stamp(_gray_verdict(analyzer, flow, loc, silence_epochs,
                                       bd, [flow.dst]))


def _gray_verdict(analyzer: Analyzer, flow: FlowKey, loc: DropLocalization,
                  window: EpochRange, bd: Breakdown,
                  consulted: list[str]) -> Verdict:
    """Turn a spatial cut into a gray-failure verdict.

    The suspect is the first silent hop when it runs SwitchPointer (the
    last forwarding one otherwise), named with the switches whose
    directories over ``window`` look most like its own.
    """
    if loc.suspect_hop is None:
        return _stamp_approx(analyzer, Verdict(
            problem="gray-failure", victim=flow, breakdown=bd,
            suspect=None, hosts_consulted=consulted,
            narrative=(f"no spatial cut on {flow.pretty()}'s path "
                       f"in epochs {window.lo}-{window.hi}")))
    here, nxt = loc.suspect_hop
    suspect = nxt if nxt in analyzer.switch_agents else here
    upstream = ", ".join(loc.forwarding) if loc.forwarding else "no"
    ranked = rank_co_suspects(analyzer, suspect, window)
    return _stamp_approx(analyzer, Verdict(
        problem="gray-failure", victim=flow, breakdown=bd, suspect=suspect,
        hosts_consulted=consulted, co_suspects=[c.switch for c in ranked],
        narrative=(
            f"packets of {flow.pretty()} vanish between {here} and {nxt}; "
            f"pointers still name {flow.dst} at {upstream} upstream "
            f"switch(es), never at {', '.join(loc.silent)}")))


# ---------------------------------------------------------------------------
# ECMP hash polarization
# ---------------------------------------------------------------------------

def diagnose_polarization(analyzer: Analyzer, switch: str, *,
                          epochs: EpochRange,
                          skew_threshold: float = 0.8) -> Verdict:
    """Is the multipath split at ``switch`` polarized onto one egress?

    Runs the §5.4 census (the same query the load-imbalance app uses)
    and flags polarization when the switch has ≥ 2 candidate switch
    egresses but one of them carries ≥ ``skew_threshold`` of the flows.
    Unlike §5.4's size-split malfunction, the signature here is *count*
    concentration, not size separation.
    """
    hosts, merged, bd = _egress_census(analyzer, switch, epochs)
    peers = _switch_neighbors(analyzer, switch)
    counts = {e: len(sizes) for e, sizes in merged.items() if e in peers}
    total = sum(counts.values())
    verdict = Verdict(problem="ecmp-polarization", victim=None,
                      breakdown=bd, hosts_consulted=sorted(hosts),
                      distribution=merged)
    if len(peers) < 2 or total == 0:
        verdict.narrative = (f"{switch} has no multipath choice to "
                             f"polarize ({len(peers)} switch egress(es))")
        return _stamp_approx(analyzer, verdict)
    top = max(counts, key=lambda e: (counts[e], e))
    share = counts[top] / total
    idle = sorted(peers - set(counts))
    if share >= skew_threshold:
        verdict.imbalanced = True
        verdict.suspect = top
        verdict.narrative = (
            f"hash polarization at {switch}: {counts[top]}/{total} flows "
            f"({share:.0%}) exit via {top}"
            + (f"; {', '.join(idle)} idle" if idle else ""))
    else:
        verdict.narrative = (
            f"no polarization at {switch}: top egress {top} carries "
            f"{share:.0%} of {total} flows (threshold {skew_threshold:.0%})")
    return _stamp_approx(analyzer, verdict)


def _switch_neighbors(analyzer: Analyzer, switch: str) -> set[str]:
    """Names of switches physically adjacent to ``switch``.

    Deliberately ignores link liveness: the link-flap diagnosis must
    still see an egress whose link happens to be down at diagnosis time,
    or the flapped side could never be named.
    """
    net = analyzer.network
    return {peer for peer in net.adjacency[switch] if peer in net.switches}


# ---------------------------------------------------------------------------
# link flap churn
# ---------------------------------------------------------------------------

def diagnose_link_flap(analyzer: Analyzer, branch_switch: str, *,
                       epochs: EpochRange) -> Verdict:
    """Find a flapping egress link at a multipath branch switch.

    Telemetry signature of a flap: flows through ``branch_switch``
    accumulate epoch ranges at *both* egress switches within ``epochs``
    (they were rerouted at least once).  The flapping egress is
    dominated by such churned flows — at least
    :data:`FLAP_CHURN_THRESHOLD` of its users also used the alternative
    — while the healthy egress keeps a stable majority of hash-assigned
    flows and is exonerated.  (Requiring *zero* stable users would be
    wrong: a TCP flow that stalls through every outage and retransmits
    after recovery never leaves the flapping side.)
    """
    bd = Breakdown()
    peers = _switch_neighbors(analyzer, branch_switch)
    # the pointer names exactly the hosts holding records for the
    # window under suspicion — consult only those
    bd.add("pointer_retrieval", analyzer.rpc.pointer_pull_cost(1))
    hosts = analyzer.hosts_for(branch_switch, epochs)
    results, q_bd = analyzer.consult_hosts(
        hosts,
        lambda agent: agent.query.flows_matching(branch_switch, epochs))
    bd.add("diagnosis", q_bd.total)

    users: dict[str, int] = {e: 0 for e in peers}
    churned: dict[str, int] = {e: 0 for e in peers}
    rerouted: list[FlowKey] = []
    consulted = sorted(results)
    for host, res in results.items():
        for summary in res.payload:
            # churn evidence must come from inside the window — a
            # detour during some *earlier* outage is not proof the link
            # flapped now
            used = {e for e in peers
                    if (rng := summary.epochs_at(e)) is not None
                    and rng.intersects(epochs)}
            for e in used:
                users[e] += 1
                if len(used) >= 2:
                    churned[e] += 1
            if len(used) >= 2:
                rerouted.append(summary.flow)

    verdict = Verdict(problem="link-flap", victim=None, breakdown=bd,
                      hosts_consulted=consulted)
    if len(rerouted) < FLAP_MIN_REROUTED:
        verdict.narrative = (
            f"{len(rerouted)} flow(s) changed egress at {branch_switch} "
            f"(need {FLAP_MIN_REROUTED}); no flap inferred")
        return _stamp_approx(analyzer, verdict)
    fractions = {e: churned[e] / users[e] for e in peers if users[e]}
    candidates = [e for e, f in fractions.items()
                  if f >= FLAP_CHURN_THRESHOLD]
    if len(candidates) != 1:
        who = (f"{len(candidates)} egresses exceed the churn threshold"
               if candidates else "no egress exceeds the churn threshold")
        verdict.narrative = (
            f"{len(rerouted)} flows oscillated at {branch_switch} but "
            f"{who}; flap not localized")
        return _stamp_approx(analyzer, verdict)
    flapped = candidates[0]
    verdict.suspect = f"{branch_switch}-{flapped}"
    others = ", ".join(sorted(e for e in peers if e != flapped))
    verdict.narrative = (
        f"link {branch_switch}-{flapped} flapped: {churned[flapped]} of "
        f"{users[flapped]} flows on it also detoured via {others}; "
        f"{len(rerouted)} flow(s) rerouted in total")
    return _stamp_approx(analyzer, verdict)


# ---------------------------------------------------------------------------
# directory similarity ("which switches saw the same hosts?")
# ---------------------------------------------------------------------------

@dataclass
class CoSuspect:
    """One switch ranked by directory similarity to a culprit switch."""

    switch: str
    #: Jaccard similarity of directory contents over the window —
    #: estimated from minhash signatures under the ``lsh`` backend,
    #: exact over decoded slot sets otherwise
    similarity: float
    #: LSH bands in full agreement (0 under non-``lsh`` backends); a
    #: positive count is the sketch's "probable near-duplicate" signal
    band_matches: int = 0


def rank_co_suspects(analyzer: Analyzer, suspect: str,
                     epochs: EpochRange) -> list[CoSuspect]:
    """Switches whose directories over ``epochs`` resemble ``suspect``'s.

    The similarity query the ``lsh`` backend exists for: "find the
    switches that saw (roughly) the same hosts as this culprit" — the
    co-suspect set for correlated faults (a shared linecard, a common
    upstream, a multi-switch gray failure).  Under ``lsh`` the ranking
    uses banded minhash signatures (band agreement as the candidate
    signal, signature Jaccard as the score) without decoding any
    membership bits; under ``exact``/``bloom`` it falls back to exact
    Jaccard over the decoded slot sets, so the query is available — just
    not sketch-accelerated — on every backend.

    Only switches with *some* overlap evidence survive: positive
    similarity, or at least one matching LSH band.  The
    :data:`CO_SUSPECTS` most similar are returned.  Deterministic: ties
    break lexicographically.
    """
    agent = analyzer.switch_agents.get(suspect)
    if agent is None:
        return []
    ref = _merged_directory_set(
        agent.best_effort_snapshots(epochs.lo, epochs.hi)[0])
    if ref is None:
        return []
    ranked: list[CoSuspect] = []
    for name in sorted(analyzer.switch_agents):
        if name == suspect:
            continue
        snaps = analyzer.switch_agents[name].best_effort_snapshots(
            epochs.lo, epochs.hi)[0]
        other = _merged_directory_set(snaps)
        if other is None:
            continue
        if (isinstance(ref, LshDirectorySet)
                and isinstance(other, LshDirectorySet)):
            bands = ref.band_matches(other)
            sim = ref.jaccard(other)
        else:
            a, b = set(ref.iter_slots()), set(other.iter_slots())
            union = a | b
            sim = len(a & b) / len(union) if union else 0.0
            bands = 0
        if sim > 0.0 or bands > 0:
            ranked.append(CoSuspect(switch=name, similarity=sim,
                                    band_matches=bands))
    ranked.sort(key=lambda c: (-c.similarity, -c.band_matches, c.switch))
    return ranked[:CO_SUSPECTS]


def _merged_directory_set(
        snaps: Sequence[PointerSnapshot]) -> Optional[DirectorySet]:
    """Decode + union pushed/live snapshots into one directory set.

    Returns ``None`` for an empty window.  All snapshots in a
    deployment share one backend and geometry, so pairwise
    ``union_into`` is always legal here.
    """
    merged: Optional[DirectorySet] = None
    for snap in snaps:
        ds = decode_directory_set(snap.backend, snap.n_slots, snap.bits,
                                  bits=snap.bits_budget,
                                  hashes=snap.hashes)
        if merged is None:
            merged = ds
        else:
            ds.union_into(merged)
    return merged


def _separation_verdict(dist: dict[str, list[int]],
                        threshold: int) -> tuple[bool, str]:
    if len(dist) < 2:
        return False, "traffic uses fewer than two egress interfaces"
    small = [e for e, sizes in dist.items()
             if sizes and max(sizes) < threshold]
    large = [e for e, sizes in dist.items()
             if sizes and min(sizes) >= threshold]
    if small and large:
        return True, (
            f"clean separation: flows < {threshold} B exit via "
            f"{sorted(small)}, flows >= {threshold} B via {sorted(large)}")
    return False, "flow sizes mix across egress interfaces"
