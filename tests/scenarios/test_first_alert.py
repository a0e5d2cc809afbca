"""An alert-driven scenario diagnoses the run's first alert, the onset.

``Scenario.diagnose`` is the one diagnosis path.  Each alert-driven
scenario hands the head of the alert queue to its app; with no alert it
returns no verdict.  Which alert is diagnosed matters: at contention's
default knobs the later alert reads a different problem.
"""

import functools

import pytest

from repro.analyzer.apps import (diagnose_cascade, diagnose_contention,
                                 diagnose_incast, diagnose_red_lights)

APPS = {
    "contention": diagnose_contention,
    "microburst": diagnose_contention,
    "red-lights": diagnose_red_lights,
    "cascades": diagnose_cascade,
    "incast": functools.partial(diagnose_incast, min_fan_in=3),
}


def _key(verdict):
    """What a diagnosis concluded, without its measured latencies."""
    return (verdict.problem, verdict.victim, verdict.suspect,
            sorted(verdict.hosts_consulted),
            sorted((c.flow, c.host, c.switch) for c in verdict.culprits))


@pytest.fixture(scope="module")
def executed(scenario_of):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = scenario_of(name)
        return cache[name]

    return get


@pytest.mark.parametrize("name", APPS)
def test_the_verdict_is_the_first_alerts(executed, name):
    scenario = executed(name)
    alerts = scenario.deployment.alerts()
    assert alerts, "the trigger must have fired"
    verdicts = scenario.diagnose()
    assert len(verdicts) == 1
    expected = APPS[name](scenario.deployment.analyzer, alerts[0])
    assert _key(verdicts[0]) == _key(expected)


@pytest.mark.parametrize("name", APPS)
def test_no_alert_no_verdict(executed, monkeypatch, name):
    scenario = executed(name)
    monkeypatch.setattr(scenario.deployment.analyzer, "alerts", [])
    assert scenario.diagnose() == []


def test_contention_alerts_disagree(executed):
    scenario = executed("contention")
    analyzer = scenario.deployment.analyzer
    onset, later = scenario.deployment.alerts()
    first = diagnose_contention(analyzer, onset)
    second = diagnose_contention(analyzer, later)
    assert onset.time < later.time
    assert (first.problem, len(first.hosts_consulted)) == (
        "priority-contention", 9)
    assert (second.problem, len(second.hosts_consulted)) == (
        "microburst-contention", 1)


def test_diagnose_reads_the_head_of_the_queue(executed, monkeypatch):
    scenario = executed("contention")
    analyzer = scenario.deployment.analyzer
    monkeypatch.setattr(analyzer, "alerts", analyzer.alerts[::-1])
    [verdict] = scenario.diagnose()
    assert verdict.problem == "microburst-contention"
