"""Unit tests for epoch arithmetic and range extrapolation."""

import pytest

from repro.core.epoch import (EpochClock, EpochRange, EpochRangeEstimator,
                              max_pointers_to_examine, unwrap_epoch)


class TestEpochClock:
    def test_epoch_of_basic(self):
        clock = EpochClock(alpha_ms=10)
        assert clock.epoch_of(0.0) == 0
        assert clock.epoch_of(0.0099) == 0
        assert clock.epoch_of(0.010) == 1
        assert clock.epoch_of(0.095) == 9

    def test_skew_shifts_epochs(self):
        fast = EpochClock(alpha_ms=10, skew_s=0.005)
        slow = EpochClock(alpha_ms=10, skew_s=-0.005)
        assert fast.epoch_of(0.006) == 1
        assert slow.epoch_of(0.006) == 0

    def test_epoch_start_inverse(self):
        clock = EpochClock(alpha_ms=10, skew_s=0.003)
        for e in (0, 5, 123):
            start = clock.epoch_start(e)
            assert clock.epoch_of(start) == e
            assert clock.epoch_of(start - 1e-9) == e - 1

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EpochClock(alpha_ms=0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_alpha_rejected_at_construction(self, alpha):
        # nan used to fail later inside math.floor; inf silently mapped
        # every time to epoch 0
        with pytest.raises(ValueError,
                           match=f"epoch duration must be finite, "
                                 f"got {alpha!r}"):
            EpochClock(alpha_ms=alpha)

    @pytest.mark.parametrize("skew", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_skew_rejected_at_construction(self, skew):
        # the same check and message as the runtime set_skew hook
        with pytest.raises(ValueError,
                           match=f"skew must be finite, got {skew!r}"):
            EpochClock(10, skew_s=skew)
        clock = EpochClock(10)
        with pytest.raises(ValueError,
                           match=f"skew must be finite, got {skew!r}"):
            clock.set_skew(skew)
        assert clock.skew_s == 0.0

    def test_non_finite_skew_fails_the_deployment_at_construction(self):
        from repro.deployment import SwitchPointerDeployment
        from repro.simnet.topology import build_leaf_spine

        net = build_leaf_spine(2, 1, 1)
        with pytest.raises(ValueError, match="skew must be finite, got nan"):
            SwitchPointerDeployment(net, skew_of=lambda _n: float("nan"))


class TestEpochRange:
    def test_contains_and_iter(self):
        rng = EpochRange(3, 6)
        assert 3 in rng and 6 in rng and 7 not in rng
        assert list(rng) == [3, 4, 5, 6]
        assert len(rng) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EpochRange(5, 4)

    def test_union(self):
        assert EpochRange(1, 3).union(EpochRange(5, 8)) == EpochRange(1, 8)

    def test_intersects(self):
        assert EpochRange(1, 5).intersects(EpochRange(5, 9))
        assert not EpochRange(1, 4).intersects(EpochRange(5, 9))


class TestEstimatorPaperExample:
    """§4.2.1: α = 10 ms, ε = α, Δ = 2α, epoch observed ei at the
    embedding switch; paper gives [ei−3, ei+1] for a 1-hop-upstream
    switch and [ei−1, ei+3] for 1-hop-downstream."""

    @pytest.fixture
    def est(self):
        return EpochRangeEstimator(alpha_ms=10, epsilon_ms=10, delta_ms=20)

    def test_one_hop_upstream(self, est):
        rng = est.range_for(100, hop_delta=-1)
        assert (rng.lo, rng.hi) == (97, 101)

    def test_one_hop_downstream(self, est):
        rng = est.range_for(100, hop_delta=+1)
        assert (rng.lo, rng.hi) == (99, 103)

    def test_embedder_itself_widened_by_skew(self, est):
        rng = est.range_for(100, hop_delta=0)
        assert (rng.lo, rng.hi) == (99, 101)

    def test_figure6_path(self, est):
        # S1 S2 [S3=embedder] S4 S5 with ei=100:
        ranges = est.ranges_for_path(["S1", "S2", "S3", "S4", "S5"],
                                     embed_index=2, observed_epoch=100)
        assert (ranges["S2"].lo, ranges["S2"].hi) == (97, 101)
        assert (ranges["S4"].lo, ranges["S4"].hi) == (99, 103)
        assert (ranges["S1"].lo, ranges["S1"].hi) == (95, 101)
        assert (ranges["S5"].lo, ranges["S5"].hi) == (99, 105)

    def test_embed_index_validation(self, est):
        with pytest.raises(ValueError):
            est.ranges_for_path(["S1"], embed_index=2, observed_epoch=0)


class TestEstimatorGeneral:
    def test_range_widens_with_hops(self):
        est = EpochRangeEstimator(alpha_ms=10, epsilon_ms=5, delta_ms=10)
        widths = [len(est.range_for(50, hop_delta=-j)) for j in (1, 2, 3)]
        assert widths == sorted(widths)
        assert widths[0] < widths[-1]

    def test_zero_epsilon_zero_delta(self):
        est = EpochRangeEstimator(alpha_ms=10, epsilon_ms=0, delta_ms=0)
        rng = est.range_for(7, hop_delta=-2)
        assert (rng.lo, rng.hi) == (7, 7)

    def test_span_epochs_ceiling(self):
        est = EpochRangeEstimator(alpha_ms=10, epsilon_ms=1, delta_ms=2)
        assert est.span_epochs(1) == 1   # ceil(3/10)
        assert est.span_epochs(5) == 2   # ceil(11/10)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EpochRangeEstimator(alpha_ms=0, epsilon_ms=1, delta_ms=1)
        with pytest.raises(ValueError):
            EpochRangeEstimator(alpha_ms=10, epsilon_ms=-1, delta_ms=1)


class TestUnwrapEpoch:
    def test_recent_epoch_recovered(self):
        # absolute epoch 8202 -> tag 8202 % 4096 = 10
        assert unwrap_epoch(10, reference_epoch=8195) == 8202

    def test_wrap_boundary_below(self):
        # reference just after a wrap; tag from just before it
        assert unwrap_epoch(4095, reference_epoch=4097) == 4095

    def test_wrap_boundary_above(self):
        assert unwrap_epoch(1, reference_epoch=4094) == 4097

    def test_identity_when_no_wrap(self):
        assert unwrap_epoch(42, reference_epoch=40) == 42

    def test_custom_modulus(self):
        assert unwrap_epoch(3, reference_epoch=19, modulus=8) == 19

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            unwrap_epoch(1, 1, modulus=0)


class TestMaxPointers:
    def test_paper_ratio(self):
        # max_delay / alpha pointers per switch (§4.2.1)
        assert max_pointers_to_examine(14, 10) == 2
        assert max_pointers_to_examine(30, 10) == 3

    def test_at_least_one(self):
        assert max_pointers_to_examine(0.1, 10) == 1

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            max_pointers_to_examine(10, 0)
