"""The perf ledger's input contract, checked in tier-1.

``benchmarks/ledger`` reads counters straight off a finished
deployment (``workloads.probe``).  An attribute it reads that the
program drops would otherwise fail only when the ledger runs; here it
fails with the unit tests.
"""

import math

import pytest

from benchmarks.ledger.expect import CATALOGUE
from benchmarks.ledger.workloads import GAUGES, probe
from repro.scenarios import REGISTRY, run_scenario


def assert_numbers(counters):
    assert set(GAUGES) <= set(counters)
    for name, value in counters.items():
        assert isinstance(value, (int, float)), name
        assert not isinstance(value, bool) and math.isfinite(value), name


def test_probe_reads_a_number_for_every_counter():
    res = run_scenario("incast", n_senders=4, duration=0.025,
                       burst_start=0.008, records_per_host=2)
    counters = probe(res.network, res.deployment)
    assert_numbers(counters)
    # the run reached every layer the ledger attributes
    assert counters["hostd.store.evicted"] > 0
    assert counters["hostd.triggers.alerts"] > 0


@pytest.mark.parametrize("name", CATALOGUE)
def test_probe_reads_every_catalogue_scenario(name):
    """``scenario_catalogue`` probes each of these deployments."""
    res = run_scenario(name, **REGISTRY.get(name).spec.smoke_knobs)
    counters = probe(res.network, res.deployment)
    assert_numbers(counters)
    assert counters["simnet.engine.events"] > 0
    assert counters["deployment.agents"] == (
        len(res.network.hosts) + len(res.network.switches))


def test_record_stats_counts_evictions_as_drops():
    """Eviction drops a record: the ledger's ``spilled`` counter stays
    0, and the evicted and resident counts add up per store."""
    res = run_scenario("incast", n_senders=4, duration=0.025,
                       burst_start=0.008, records_per_host=2)
    stats = res.deployment.record_stats()
    stores = [a.store for a in res.deployment.host_agents.values()]
    assert stats["spilled_records"] == 0
    assert stats["evicted_records"] == sum(s.evicted for s in stores) > 0
    assert stats["total_records"] == sum(len(s) for s in stores)
    assert all(len(s) <= 2 for s in stores)
    assert stats["peak_records"] == max(s.peak_records for s in stores)
