"""Unit tests for the analytic sizing models (Figs 10, 11 anchors)."""

import pytest

from repro.core.pointer import HierarchicalPointerStore
from repro.core.sizing import (mphf_bytes, pointer_set_bits,
                               pointer_sets_total, push_bandwidth_bps,
                               recycling_period_ms, store_memory_bits,
                               total_switch_memory_bytes)


class TestPaperAnchors:
    """§6.1's quoted numbers."""

    def test_pointer_sizes(self):
        # "12.5 KB (n = 100K) and 125 KB (n = 1M)" per pointer set
        assert pointer_set_bits(100_000) / 8 == 12_500
        assert pointer_set_bits(1_000_000) / 8 == 125_000

    def test_mphf_sizes(self):
        # "about 70 KB (n = 100K) and 700 KB (n = 1M)"
        assert mphf_bytes(100_000) == pytest.approx(70_000)
        assert mphf_bytes(1_000_000) == pytest.approx(700_000)

    def test_minimum_memory(self):
        # "together SwitchPointer requires 82.5 KB and 825 KB" (k = 1)
        assert total_switch_memory_bytes(100_000, 10, 1) == pytest.approx(
            82_500)
        assert total_switch_memory_bytes(1_000_000, 10, 1) == pytest.approx(
            825_000)

    def test_fig10a_k3_points(self):
        # "When n=1M, α=10 and k=3, SwitchPointer consumes 3.45 MB;
        #  for n=100K, it is only 345 KB" (within rounding of the text)
        mem_1m = total_switch_memory_bytes(1_000_000, 10, 3)
        mem_100k = total_switch_memory_bytes(100_000, 10, 3)
        assert mem_1m == pytest.approx(3.45e6, rel=0.05)
        assert mem_100k == pytest.approx(345e3, rel=0.05)
        assert mem_1m / mem_100k == pytest.approx(10.0)

    def test_fig10b_bandwidth_drop_k1_to_k2(self):
        # "(n=1M, α=10): 100 Mbps (k=1) to 10 Mbps (k=2)"
        assert push_bandwidth_bps(1_000_000, 10, 1) == pytest.approx(100e6)
        assert push_bandwidth_bps(1_000_000, 10, 2) == pytest.approx(10e6)

    def test_fig11_recycling(self):
        # α=10: level 1 -> 90 ms; formula α(αʰ−1)
        assert recycling_period_ms(10, 1) == 90
        assert recycling_period_ms(10, 2) == 990
        assert recycling_period_ms(20, 1) == 380


class TestMonotonicity:
    def test_memory_increases_with_k_and_alpha(self):
        base = total_switch_memory_bytes(100_000, 10, 2)
        assert total_switch_memory_bytes(100_000, 10, 3) > base
        assert total_switch_memory_bytes(100_000, 20, 2) > base

    def test_bandwidth_decreases_with_k_and_alpha(self):
        base = push_bandwidth_bps(100_000, 10, 2)
        assert push_bandwidth_bps(100_000, 10, 3) < base
        assert push_bandwidth_bps(100_000, 20, 2) < base

    def test_bandwidth_drops_exponentially_in_k(self):
        rates = [push_bandwidth_bps(100_000, 10, k) for k in (1, 2, 3, 4)]
        for a, b in zip(rates, rates[1:]):
            assert a / b == pytest.approx(10.0)

    def test_recycling_grows_exponentially_in_level(self):
        periods = [recycling_period_ms(10, h) for h in (1, 2, 3)]
        assert periods == sorted(periods)
        assert periods[1] / periods[0] == pytest.approx(11.0)


class TestFormulaConsistency:
    def test_store_memory_matches_live_structure(self):
        for alpha, k in ((10, 1), (10, 3), (20, 2), (4, 5)):
            live = HierarchicalPointerStore(1000, alpha=alpha, k=k)
            assert live.memory_bits == store_memory_bits(1000, alpha, k)

    def test_pointer_sets_total(self):
        assert pointer_sets_total(10, 3) == 21
        assert pointer_sets_total(10, 1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            pointer_set_bits(0)
        with pytest.raises(ValueError):
            store_memory_bits(10, 1, 3)
        with pytest.raises(ValueError):
            push_bandwidth_bps(10, 10, 0)
        with pytest.raises(ValueError):
            recycling_period_ms(10, 0)


class TestFig10Row:
    def test_one_row_of_the_paper_sweep(self):
        assert pointer_sets_total(10, 3) == 21
        assert total_switch_memory_bytes(100_000, 10, 3) / 1e6 == \
            pytest.approx(0.3325, rel=0.01)
