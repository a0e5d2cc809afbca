"""Analytic resource models from §4.1.1 and §6.1 (Figs 10, 11).

These closed forms are what the paper plots; the live data structure in
:mod:`repro.core.pointer` is cross-checked against them in tests.

Symbols: n = number of end-hosts (slots), α = epoch duration in ms and
per-level fan-out, k = hierarchy depth, S = pointer-set size = n bits.
"""

from __future__ import annotations


#: §6.1: the FCH perfect hash accounts for ~70 KB at n = 100K and
#: ~700 KB at n = 1M, i.e. 5.6 bits per key of auxiliary state.
MPHF_BITS_PER_KEY = 5.6


def pointer_set_bits(n_hosts: int) -> int:
    """S: one bit per end-host (§4.1.2 — "4-byte IP ... with 1 bit")."""
    if n_hosts <= 0:
        raise ValueError("need at least one host")
    return n_hosts


def pointer_sets_total(alpha: int, k: int) -> int:
    """Number of pointer sets held: α·(k−1) + 1."""
    _check_alpha_k(alpha, k)
    return alpha * (k - 1) + 1


def store_memory_bits(n_hosts: int, alpha: int, k: int) -> int:
    """Switch SRAM for pointers: α·(k−1)·S + S bits (§4.1.1)."""
    return pointer_sets_total(alpha, k) * pointer_set_bits(n_hosts)


def mphf_bytes(n_hosts: int,
               bits_per_key: float = MPHF_BITS_PER_KEY) -> float:
    """Auxiliary perfect-hash state (≈70 KB per 100K hosts, §6.1)."""
    return pointer_set_bits(n_hosts) * bits_per_key / 8


def total_switch_memory_bytes(n_hosts: int, alpha: int, k: int) -> float:
    """Pointers + MPHF: what Fig 10(a) plots.

    Sanity anchors from the paper: (n=1M, α=10, k=3) ≈ 3.45 MB;
    (n=100K, α=10, k=3) ≈ 345 KB; minimum (k=1): 82.5 KB / 825 KB.
    """
    return store_memory_bits(n_hosts, alpha, k) / 8 + mphf_bytes(n_hosts)


def push_bandwidth_bps(n_hosts: int, alpha: int, k: int) -> float:
    """Data-plane → control-plane push rate: S · (10³ / αᵏ) bps.

    Only the top-level set is pushed, once per αᵏ ms; each push moves S
    bits.  Fig 10(b): (n=1M, α=10) drops 100 → 10 Mbps from k=1 → 2.
    """
    _check_alpha_k(alpha, k)
    return pointer_set_bits(n_hosts) * (1000.0 / alpha ** k)


def recycling_period_ms(alpha: int, level: int) -> float:
    """§6.1: pointer at level h is reused after α·(αʰ − 1) ms (h < k).

    α = 10: level 1 → 90 ms, level 2 → 990 ms (the paper's prose rounds
    the latter to 900 ms; the formula it states gives 990).
    """
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if level < 1:
        raise ValueError("level must be >= 1")
    return float(alpha * (alpha ** level - 1))


def _check_alpha_k(alpha: int, k: int) -> None:
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
