"""Unit tests for the latency-modelled RPC fabric."""

import pytest

from repro.hostd.query import QueryResult
from repro.rpc.fabric import Breakdown, LatencyModel, RpcFabric


def result(scanned=10):
    return QueryResult(payload=None, records_scanned=scanned)


class TestBreakdown:
    def test_add_and_total(self):
        bd = Breakdown()
        bd.add("a", 0.001)
        bd.add("a", 0.002)
        bd.add("b", 0.005)
        assert bd.parts["a"] == pytest.approx(0.003)
        assert bd.total == pytest.approx(0.008)

    def test_merged_is_nonmutating(self):
        a, b = Breakdown({"x": 1.0}), Breakdown({"x": 2.0, "y": 3.0})
        merged = a.merged(b)
        assert merged.parts == {"x": 3.0, "y": 3.0}
        assert a.parts == {"x": 1.0}


class TestElementaryCosts:
    def test_alert_cost(self):
        rpc = RpcFabric()
        assert rpc.alert_cost() == pytest.approx(2.5e-3)

    def test_pointer_pull_scales_with_switches(self):
        """§5.1: ~7-8 ms per switch pointer retrieval."""
        rpc = RpcFabric()
        one = rpc.pointer_pull_cost(1)
        assert 7e-3 <= one <= 8e-3
        assert rpc.pointer_pull_cost(3) == pytest.approx(3 * one)

    def test_pointer_pull_validates(self):
        with pytest.raises(ValueError):
            RpcFabric().pointer_pull_cost(-1)

    def test_call_counter(self):
        rpc = RpcFabric()
        rpc.alert_cost()
        rpc.pointer_pull_cost(2)
        assert rpc.calls == 3


class TestFanout:
    def test_connection_initiation_serializes(self):
        """§6.2: per-server connection setup dominates and is linear."""
        rpc = RpcFabric()
        _, bd10 = rpc.fanout_query([f"h{i}" for i in range(10)],
                                   lambda s: result())
        _, bd40 = rpc.fanout_query([f"h{i}" for i in range(40)],
                                   lambda s: result())
        c10 = bd10.parts["connection_initiation"]
        c40 = bd40.parts["connection_initiation"]
        assert c40 == pytest.approx(4 * c10)

    def test_execution_is_parallel_max_not_sum(self):
        rpc = RpcFabric()
        scans = {"a": 10, "b": 10_000}
        _, bd = rpc.fanout_query(
            ["a", "b"], lambda s: result(scanned=scans[s]))
        model = rpc.model
        expected = model.exec_base_s + 10_000 * model.per_record_s
        assert bd.parts["query_execution"] == pytest.approx(expected)

    def test_results_keyed_by_server(self):
        rpc = RpcFabric()
        results, _ = rpc.fanout_query(["x", "y"], lambda s: result())
        assert set(results) == {"x", "y"}

    def test_empty_server_list(self):
        rpc = RpcFabric()
        results, bd = rpc.fanout_query([], lambda s: result())
        assert results == {}
        assert bd.total == 0.0

    def test_pooled_mode_cheaper(self):
        """The §6.2 thread-pool optimization slashes setup cost."""
        servers = [f"h{i}" for i in range(96)]
        on_demand = RpcFabric()
        pooled = RpcFabric(pooled=True)
        _, bd1 = on_demand.fanout_query(servers, lambda s: result())
        _, bd2 = pooled.fanout_query(servers, lambda s: result())
        assert bd2.parts["connection_initiation"] < \
            bd1.parts["connection_initiation"] / 10

    def test_96_server_fanout_near_paper_range(self):
        """PathDump's 96-server top-k lands around 0.3-0.4 s in Fig 12."""
        rpc = RpcFabric()
        servers = [f"h{i}" for i in range(96)]
        _, bd = rpc.fanout_query(servers, lambda s: result(scanned=100))
        assert 0.25 <= bd.total <= 0.45


class TestCustomModel:
    def test_model_overridable(self):
        model = LatencyModel(connection_init_s=1e-3)
        rpc = RpcFabric(model)
        _, bd = rpc.fanout_query(["a"], lambda s: result())
        assert bd.parts["connection_initiation"] == pytest.approx(1e-3)


class TestSerialSetup:
    def test_setup_serializes_one_server_at_a_time(self):
        """§6.2 on-demand behaviour: one connection initiation each."""
        servers = [f"h{i}" for i in range(40)]
        _, bd = RpcFabric().fanout_query(servers, lambda s: result())
        assert bd.parts["connection_initiation"] == pytest.approx(
            40 * LatencyModel().connection_init_s)
