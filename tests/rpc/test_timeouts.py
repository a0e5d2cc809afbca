"""Timeout/retry/backoff: partial answers instead of hangs.

A fan-out server that fails the ``responsive`` predicate burns a
bounded retry budget and is simply absent from the result dict; the
budget is the closed form of ``timeout_retry_cost`` and is paid
*concurrently* by however many servers are down.
"""

import pytest

from repro.hostd.query import QueryResult
from repro.rpc.fabric import LatencyModel, RpcFabric
from repro.simnet.engine import Simulator


def result(scanned=10):
    return QueryResult(payload=None, records_scanned=scanned)


class TestRetryBudget:
    def test_closed_form(self):
        """(1 + retries) timeouts plus the exponential backoff series."""
        model = LatencyModel(timeout_s=0.020, retries=2,
                             backoff_s=0.005, backoff_factor=2.0)
        rpc = RpcFabric(model)
        assert rpc.timeout_retry_cost() == pytest.approx(
            3 * 0.020 + 0.005 + 0.010)

    def test_no_retries_is_a_single_timeout(self):
        rpc = RpcFabric(LatencyModel(retries=0))
        assert rpc.timeout_retry_cost() == pytest.approx(
            rpc.model.timeout_s)


class TestUnresponsiveServers:
    def test_dead_server_absent_not_hanging(self):
        rpc = RpcFabric()
        results, _ = rpc.fanout_query(
            ["up", "down"], lambda s: result(),
            responsive=lambda s: s != "down")
        assert set(results) == {"up"}
        assert rpc.timeouts == 1
        assert rpc.attempts_wasted == 1 + rpc.model.retries

    def test_dead_server_query_never_executes(self):
        rpc = RpcFabric()
        called = []

        def execute(s):
            called.append(s)
            return result()

        rpc.fanout_query(["a", "b"], execute,
                         responsive=lambda s: s == "a")
        assert called == ["a"]

    def test_retry_storm_is_bounded_and_concurrent(self):
        """Three dead servers cost one retry budget, not three."""
        one, three = RpcFabric(), RpcFabric()
        _, bd1 = one.fanout_query(
            ["up", "d1"], lambda s: result(),
            responsive=lambda s: s == "up")
        _, bd3 = three.fanout_query(
            ["up", "d1", "d2", "d3"], lambda s: result(),
            responsive=lambda s: s == "up")
        assert bd3.parts["timeout_retry"] == pytest.approx(
            bd1.parts["timeout_retry"])
        assert three.timeouts == 3
        assert three.attempts_wasted == 3 * (1 + three.model.retries)

    def test_timeout_phase_is_only_the_overhang(self):
        """The dead server's clock runs concurrently with the live
        answers; only the part outliving them is extra latency."""
        rpc = RpcFabric()
        _, bd = rpc.fanout_query(
            ["up", "down"], lambda s: result(),
            responsive=lambda s: s == "up")
        tail = bd.parts["query_execution"] + bd.parts["response"]
        assert bd.parts["timeout_retry"] == pytest.approx(
            rpc.timeout_retry_cost() - tail)

    def test_all_dead_yields_empty_partial_answer(self):
        rpc = RpcFabric()
        results, bd = rpc.fanout_query(
            ["a", "b"], lambda s: result(), responsive=lambda s: False)
        assert results == {}
        assert rpc.timeouts == 2
        assert bd.parts["timeout_retry"] > 0


class TestSimBoundClock:
    def test_bound_fabric_charges_simulated_time(self):
        sim = Simulator()
        rpc = RpcFabric()
        rpc.bind(sim)
        _, bd = rpc.fanout_query(
            ["up", "down"], lambda s: result(),
            responsive=lambda s: s == "up")
        assert sim.now == pytest.approx(bd.total)

    def test_unbound_fabric_is_pure_accounting(self):
        sim = Simulator()
        rpc = RpcFabric()
        _, bd = rpc.fanout_query(["a"], lambda s: result())
        assert sim.now == 0.0
        assert bd.total > 0

    def test_hop_count_adds_wire_cost(self):
        sim = Simulator()
        rpc = RpcFabric()
        rpc.bind(sim, hops_to=lambda s: 4)
        _, bd = rpc.fanout_query(["a"], lambda s: result())
        m = rpc.model
        assert bd.parts["query_execution"] == pytest.approx(
            m.exec_base_s + 10 * m.per_record_s + 4 * m.per_hop_s)

    def test_with_extra_slows_every_wire_constant(self):
        base, slow = LatencyModel(), LatencyModel().with_extra(2e-3)
        assert slow.alert_rtt_s == pytest.approx(base.alert_rtt_s + 2e-3)
        assert slow.pointer_pull_s == pytest.approx(
            base.pointer_pull_s + 2e-3)
        assert slow.request_s == pytest.approx(base.request_s + 2e-3)
        assert slow.per_record_s == base.per_record_s

    def test_with_extra_validates(self):
        with pytest.raises(ValueError, match="cannot be negative"):
            LatencyModel().with_extra(-1e-3)
        assert LatencyModel().with_extra(0.0) is not None

    @pytest.mark.parametrize("extra", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_with_extra_rejects_non_finite(self, extra):
        # nan used to slip past the sign check into every modelled
        # debugging time; inf failed later, inside the simulator
        with pytest.raises(ValueError,
                           match=f"extra RPC latency must be finite, "
                                 f"got {extra!r}"):
            LatencyModel().with_extra(extra)
