"""Property tests on the RateTable MCS contract (DESIGN.md §12).

Three laws carry the multi-rate refactor:

* **monotone rate** — higher SINR can never be granted a lower tier or
  fewer packets per slot, stateless or through hysteresis selection;
* **no hysteresis oscillation** — for a fixed SINR, ``select`` is
  idempotent (a link inside one band settles in one step and stays), and
  any SINR trajectory visits tiers without chattering: an upgrade needs
  margin, so re-evaluating an unchanged SINR can never flip tiers back
  and forth;
* **degenerate ≡ β-threshold** — the single-tier table at rate 1 grants
  exactly the bool feasibility verdict: rate 1 iff ``SINR >= β``, else 0,
  at any hysteresis.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.phy.radio import RateTable

finite_sinr = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def rate_tables(draw):
    """A random valid table: increasing thresholds, non-decreasing rates."""
    n = draw(st.integers(min_value=1, max_value=6))
    base = draw(st.floats(min_value=0.5, max_value=100.0))
    steps = draw(
        st.lists(
            st.floats(min_value=1.1, max_value=8.0), min_size=n - 1, max_size=n - 1
        )
    )
    thresholds = base * np.cumprod([1.0] + steps)
    increments = draw(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n)
    )
    rates = 1 + np.cumsum(increments)
    hysteresis = draw(st.floats(min_value=1.0, max_value=3.0))
    return RateTable(thresholds=thresholds, rates=rates, hysteresis=hysteresis)


@st.composite
def table_and_sinrs(draw):
    table = draw(rate_tables())
    sinrs = draw(
        st.lists(finite_sinr, min_size=1, max_size=20).map(
            lambda xs: np.asarray(xs, dtype=float)
        )
    )
    return table, sinrs


@st.composite
def table_and_prev(draw):
    table, sinrs = draw(table_and_sinrs())
    prev = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=-1, max_value=table.n_tiers - 1),
                min_size=sinrs.size,
                max_size=sinrs.size,
            )
        ),
        dtype=np.int64,
    )
    return table, sinrs, prev


@given(table_and_sinrs())
@settings(max_examples=150, deadline=None)
def test_rate_is_monotone_in_sinr(tc):
    """Sorting the SINRs sorts the tiers and the rates."""
    table, sinrs = tc
    order = np.argsort(sinrs)
    tiers = table.tier_for(sinrs)[order]
    rates = table.rate_for(sinrs)[order]
    assert (np.diff(tiers) >= 0).all()
    assert (np.diff(rates) >= 0).all()
    assert (rates >= 0).all()


@given(table_and_prev())
@settings(max_examples=150, deadline=None)
def test_select_is_monotone_in_sinr_for_shared_prev(tc):
    """With one shared previous tier, higher SINR never selects lower."""
    table, sinrs, prev = tc
    shared = np.full_like(prev, prev[0])
    order = np.argsort(sinrs)
    selected = table.select(sinrs, shared)[order]
    assert (np.diff(selected) >= 0).all()


@given(table_and_prev())
@settings(max_examples=150, deadline=None)
def test_select_never_exceeds_raw_tier_and_never_underruns_on_upgrade(tc):
    """Selection is sandwiched: at most the raw-threshold tier, and on the
    upgrade path (raw > prev >= 0) at least the previous tier."""
    table, sinrs, prev = tc
    raw = table.tier_for(sinrs)
    selected = table.select(sinrs, prev)
    assert (selected <= raw).all()
    upgrade = (prev >= 0) & (raw > prev)
    assert (selected[upgrade] >= prev[upgrade]).all()
    # Downgrades and unset-prev entries snap to the stateless answer.
    assert (selected[~upgrade] == raw[~upgrade]).all()


@given(table_and_prev())
@settings(max_examples=150, deadline=None)
def test_select_is_idempotent_no_oscillation(tc):
    """For a fixed SINR the selection map reaches a fixed point in one
    step: a link whose SINR sits inside a hysteresis band cannot flap
    between tiers on re-evaluation."""
    table, sinrs, prev = tc
    once = table.select(sinrs, prev)
    twice = table.select(sinrs, once)
    assert np.array_equal(once, twice)


@given(
    st.floats(min_value=1.001, max_value=1e4),
    st.lists(finite_sinr, min_size=1, max_size=20),
    st.floats(min_value=1.0, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_degenerate_table_is_the_beta_threshold(beta, sinrs, hysteresis):
    """Rate 1 iff SINR >= β, else 0 — the bool feasibility contract —
    whatever the hysteresis and whatever the selection history."""
    values = np.asarray(sinrs, dtype=float)
    table = RateTable(
        thresholds=np.array([beta]), rates=np.array([1]), hysteresis=hysteresis
    )
    expected = np.where(values >= beta, 1, 0)
    assert np.array_equal(table.rate_for(values), expected)
    for prev in (-1, 0):
        selected = table.select(values, np.full(values.size, prev, dtype=np.int64))
        clamped = np.maximum(selected, 0)  # serving clamps to the base tier
        assert np.array_equal(table.rates[clamped], np.ones(values.size, np.int64))
        # Unclamped: tier 0 iff decodable.
        assert np.array_equal(selected >= 0, values >= beta)


@given(table_and_sinrs())
@settings(max_examples=100, deadline=None)
def test_unit_hysteresis_select_is_stateless(tc):
    """hysteresis == 1 collapses selection to tier_for, any history."""
    table, sinrs = tc
    if table.hysteresis != 1.0:
        table = RateTable(
            thresholds=table.thresholds, rates=table.rates, hysteresis=1.0
        )
    raw = table.tier_for(sinrs)
    for prev_tier in (-1, 0, table.n_tiers - 1):
        prev = np.full(sinrs.size, prev_tier, dtype=np.int64)
        assert np.array_equal(table.select(sinrs, prev), raw)
