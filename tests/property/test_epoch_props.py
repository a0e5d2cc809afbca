"""Property-based tests: epoch-range extrapolation always covers truth.

The §4.2.1 guarantee: for any bounded clock skews (|skew| ≤ ε/2 so any
pair differs by ≤ ε) and any per-hop delays ≤ Δ, the range computed for
every switch from the single observed epochID contains that switch's
true epoch."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.epoch import (EpochClock, EpochRangeEstimator,
                              unwrap_epoch)

ALPHA_MS = 10.0
EPS_MS = 5.0
DELTA_MS = 8.0


@st.composite
def path_scenario(draw):
    n_switches = draw(st.integers(min_value=1, max_value=6))
    embed_index = draw(st.integers(min_value=0,
                                   max_value=n_switches - 1))
    # per-device skews: any pair differs by at most EPS_MS
    skews = [draw(st.floats(min_value=-EPS_MS / 2, max_value=EPS_MS / 2,
                            allow_nan=False))
             for _ in range(n_switches)]
    # per-hop delays up to DELTA_MS
    hop_delays = [draw(st.floats(min_value=0.0, max_value=DELTA_MS,
                                 allow_nan=False))
                  for _ in range(n_switches - 1)]
    t0 = draw(st.floats(min_value=0.0, max_value=50_000.0,
                        allow_nan=False))
    return n_switches, embed_index, skews, hop_delays, t0


@settings(max_examples=200, deadline=None)
@given(scenario=path_scenario())
def test_ranges_cover_true_epochs(scenario):
    n, embed_index, skews, hop_delays, t0 = scenario
    clocks = [EpochClock(ALPHA_MS, skew_s=s / 1000.0) for s in skews]
    # true arrival time at each switch
    times = [t0]
    for d in hop_delays:
        times.append(times[-1] + d / 1000.0)
    true_epochs = [clocks[i].epoch_of(times[i]) for i in range(n)]
    observed = true_epochs[embed_index]

    est = EpochRangeEstimator(alpha_ms=ALPHA_MS, epsilon_ms=EPS_MS,
                              delta_ms=DELTA_MS)
    offsets = est.offsets(n, embed_index)
    for i, (lo, hi) in enumerate(offsets):
        assert observed + lo <= true_epochs[i] <= observed + hi, (
            i, embed_index, true_epochs, offsets[i])


@settings(max_examples=200, deadline=None)
@given(epoch=st.integers(min_value=0, max_value=10**7),
       drift=st.integers(min_value=-2000, max_value=2000))
def test_unwrap_recovers_absolute_epoch(epoch, drift):
    """As long as the reference is within half the wrap period, the
    12-bit tag unwraps to the exact absolute epoch."""
    reference = max(0, epoch + drift)
    tag = epoch % 4096
    assert unwrap_epoch(tag, reference) == epoch


@settings(max_examples=100, deadline=None)
@given(alpha=st.sampled_from([5.0, 10.0, 20.0]),
       eps=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
       delta=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       j=st.integers(min_value=0, max_value=5),
       e=st.integers(min_value=100, max_value=10**6))
def test_range_width_matches_formula(alpha, eps, delta, j, e):
    est = EpochRangeEstimator(alpha_ms=alpha, epsilon_ms=eps,
                              delta_ms=delta)
    upstream = est.range_for(e, hop_delta=-j) if j else est.range_for(e, 0)
    eps_epochs = math.ceil(eps / alpha)
    span = math.ceil((eps + j * delta) / alpha) if j else eps_epochs
    assert upstream.lo == e - span
    assert upstream.hi == e + eps_epochs
