"""Property-based tests for workload planning (docs/WORKLOADS.md).

Core claim: the batched planner — endpoint indices and flow sizes
drawn in C-level ``random.choices`` batches — produces the *same flow
population* (sources, destinations, sizes, start times, ports) as the
per-flow planner below for equal seeds, across endpoint mixes,
population sizes, endpoint subsets, and batch boundaries.  This is the
contract that lets scenarios use the fast path while tests and docs
reason about the simple one."""

from hypothesis import given, settings, strategies as st

from repro.simnet.packet import PROTO_UDP, FlowKey
from repro.simnet.workload import (MIX_UNIFORM, MIX_ZIPF, FlowPlan,
                                   FlowPlanner, WorkloadSpec, _stream)

HOSTS = [f"h{i}" for i in range(12)]

fixed_population_specs = st.builds(
    WorkloadSpec,
    n_flows=st.integers(min_value=0, max_value=500),
    spread_s=st.sampled_from([0.0, 0.004, 0.05]),
    mix=st.sampled_from([MIX_UNIFORM, MIX_ZIPF]),
    zipf_s=st.floats(min_value=0.3, max_value=2.5,
                     allow_nan=False, allow_infinity=False),
    mean_flow_bytes=st.integers(min_value=2_000, max_value=200_000),
    min_flow_bytes=st.integers(min_value=200, max_value=2_000),
    pareto_shape=st.floats(min_value=1.05, max_value=3.0,
                           allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)

poisson_specs = st.builds(
    WorkloadSpec,
    arrival_rate_per_s=st.floats(min_value=200.0, max_value=20_000.0,
                                 allow_nan=False, allow_infinity=False),
    duration_s=st.sampled_from([0.005, 0.02]),
    mix=st.sampled_from([MIX_UNIFORM, MIX_ZIPF]),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)

endpoint_subsets = st.lists(st.sampled_from(HOSTS), unique=True,
                            min_size=2, max_size=len(HOSTS))


def plan_per_flow(planner: FlowPlanner,
                  t0: float = 0.0) -> list[tuple[FlowKey, int, float]]:
    """The oracle: one draw call per attribute per flow, from the same
    derived streams :meth:`FlowPlanner.plan` batches, each flow
    assembled on its own as ``(key, size, start)``."""
    seed = planner.spec.seed
    rng_src = _stream(seed, "src")
    rng_dst = _stream(seed, "dst")
    rng_size = _stream(seed, "size")
    senders, receivers = planner.senders, planner.receivers
    flows = []
    for i, start in enumerate(planner._starts(t0)):
        s_i = rng_src.choices(planner._src_idx,
                              cum_weights=planner._src_cum, k=1)[0]
        d_i = rng_dst.choices(planner._dst_idx,
                              cum_weights=planner._dst_cum, k=1)[0]
        size = planner._size_of(rng_size.random())
        src = senders[s_i]
        # the self-pair fix-up: step to the next receiver that differs
        while receivers[d_i] == src:
            d_i = (d_i + 1) % len(receivers)
        port = planner.base_port + i
        flows.append((FlowKey(src, receivers[d_i], port, port, PROTO_UDP),
                      size, start))
    return flows


def rows(plan: FlowPlan) -> list[tuple[FlowKey, int, float]]:
    """A column plan as the oracle's ``(key, size, start)`` rows."""
    assert len(plan.src) == len(plan.dst) == len(plan.size) == len(plan)
    return [(plan.key(i), plan.size[i], plan.start[i])
            for i in range(len(plan))]


def assert_paths_identical(planner: FlowPlanner, t0: float = 0.0):
    batched = rows(planner.plan(t0))
    per_flow = plan_per_flow(planner, t0)
    # full structural equality: same flows (src, dst, ports), same
    # sizes, same start times, same order
    assert batched == per_flow
    assert all(key.src != key.dst for key, _, _ in batched)
    return batched


class TestBatchedEqualsNaive:
    @given(spec=fixed_population_specs)
    @settings(max_examples=60, deadline=None)
    def test_fixed_population_identical(self, spec):
        assert_paths_identical(FlowPlanner(spec, HOSTS, HOSTS))

    @given(spec=poisson_specs)
    @settings(max_examples=40, deadline=None)
    def test_poisson_arrivals_identical(self, spec):
        assert_paths_identical(FlowPlanner(spec, HOSTS, HOSTS),
                               t0=0.003)

    @given(spec=fixed_population_specs, senders=endpoint_subsets,
           receivers=endpoint_subsets)
    @settings(max_examples=40, deadline=None)
    def test_endpoint_subsets_identical(self, spec, senders, receivers):
        assert_paths_identical(FlowPlanner(spec, senders, receivers))

    @given(spec=fixed_population_specs,
           batch=st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_any_batch_boundary_identical(self, spec, batch):
        """The plan must not depend on where batches split."""
        small = FlowPlanner(spec, HOSTS, HOSTS)
        small.BATCH = batch  # instance attribute shadows the class one
        planner = FlowPlanner(spec, HOSTS, HOSTS)
        assert (rows(small.plan()) == rows(planner.plan())
                == plan_per_flow(planner))

    @given(spec=fixed_population_specs)
    @settings(max_examples=30, deadline=None)
    def test_plans_stable_across_planner_instances(self, spec):
        a = FlowPlanner(spec, HOSTS, HOSTS).plan()
        b = FlowPlanner(spec, HOSTS, HOSTS).plan()
        assert rows(a) == rows(b)

    @given(spec=fixed_population_specs)
    @settings(max_examples=30, deadline=None)
    def test_sizes_respect_bounds(self, spec):
        for size in FlowPlanner(spec, HOSTS, HOSTS).plan().size:
            assert spec.min_flow_bytes <= size <= spec.max_flow_bytes
