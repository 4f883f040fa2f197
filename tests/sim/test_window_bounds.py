"""The coordinator's grant map: safe, capped, and always making progress.

``window_bounds`` turns every shard's earliest possible activity
(``eff``) into the exclusive bound of its next window. Safety means no
message a peer can still emit lands below a granted bound; progress means
the earliest shard always gets a window that moves it forward.
"""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.sim.shard import window_bounds

_EFF = st.lists(
    st.one_of(st.floats(0.0, 1.0), st.just(math.inf)), min_size=1,
    max_size=16,
)
_LOOKAHEAD = st.floats(1e-9, 1e-3)
_HORIZON = st.one_of(st.floats(0.0, 2.0), st.just(math.inf))


def test_worked_example():
    # Shard 0 is earliest: its bound is its own feedback cap 0 + 2L.
    # Shards 1 and 2 are bounded by shard 0's next emission at 0 + L.
    assert window_bounds([0.0, 5e-6, math.inf], 1e-6, math.inf) == [
        2e-6, 1e-6, 1e-6,
    ]
    assert window_bounds([0.0, 5e-6], 1e-6, 1.5e-6) == [1.5e-6, 1e-6]


@given(eff=_EFF, lookahead=_LOOKAHEAD, horizon=_HORIZON)
def test_bounds_are_safe_and_capped(eff, lookahead, horizon):
    bounds = window_bounds(eff, lookahead, horizon)
    assert len(bounds) == len(eff)
    for i, bound in enumerate(bounds):
        assert bound <= horizon
        assert bound <= eff[i] + 2 * lookahead
        for j, other in enumerate(eff):
            if j != i:
                assert bound <= other + lookahead


@given(eff=_EFF, lookahead=_LOOKAHEAD, horizon=_HORIZON)
def test_earliest_shard_makes_progress(eff, lookahead, horizon):
    earliest = min(eff)
    assume(earliest < horizon)
    bounds = window_bounds(eff, lookahead, horizon)
    k = eff.index(earliest)
    assert bounds[k] > eff[k]
