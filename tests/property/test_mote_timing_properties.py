"""Property tests: mote RSSI processing and the timing model."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.events import StepTally
from repro.core.timing import TimingModel, reprice_scream_slots
from repro.mote.rssi import moving_average, rssi_dbm, threshold_crossings, TransmissionInterval


@given(
    st.lists(st.floats(min_value=-120, max_value=0), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=12),
)
def test_moving_average_bounded_by_extremes(values, window):
    arr = np.asarray(values)
    out = moving_average(arr, window)
    assert (out >= arr.min() - 1e-9).all()
    assert (out <= arr.max() + 1e-9).all()


@given(
    st.lists(st.floats(min_value=-120, max_value=0), min_size=2, max_size=60)
)
def test_moving_average_window1_identity(values):
    arr = np.asarray(values)
    assert np.array_equal(moving_average(arr, 1), arr)


@given(
    st.lists(st.floats(min_value=-120, max_value=0), min_size=1, max_size=60),
    st.floats(min_value=-110, max_value=-10),
)
def test_crossings_alternate_with_dips(values, threshold):
    """Number of upward crossings <= number of maximal above-runs."""
    times = np.arange(len(values), dtype=float)
    arr = np.asarray(values)
    crossings = threshold_crossings(times, arr, threshold)
    above = arr >= threshold
    runs = int((above[1:] & ~above[:-1]).sum()) + int(above[0])
    assert crossings.size == runs


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_rssi_monotone_in_burst_power(seed):
    rng = np.random.default_rng(seed)
    times = np.linspace(0, 0.01, 12)
    weak = [TransmissionInterval(0.0, 0.01, -80.0)]
    strong = [TransmissionInterval(0.0, 0.01, -50.0)]
    r_weak = rssi_dbm(times, weak, -95.0, 0.0, rng)
    r_strong = rssi_dbm(times, strong, -95.0, 0.0, rng)
    assert (r_strong >= r_weak).all()


@st.composite
def tallies(draw):
    tally = StepTally()
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        tally.add_scream(draw(st.integers(min_value=1, max_value=1)) * 5)
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        tally.add_handshake()
    tally.add_sync(draw(st.integers(min_value=0, max_value=50)))
    return tally


@given(tallies(), st.floats(min_value=0, max_value=1e-2))
@settings(max_examples=60)
def test_execution_time_monotone_in_skew(tally, skew):
    base = TimingModel(skew_bound_s=0.0).execution_time(tally)
    skewed = TimingModel(skew_bound_s=skew).execution_time(tally)
    assert skewed >= base
    expected_slope = 2.0 * tally.total_steps
    assert skewed - base == (
        0.0 if tally.total_steps == 0 else np.float64(expected_slope * skew)
    ) or abs(skewed - base - expected_slope * skew) < 1e-12


@given(tallies(), st.integers(min_value=1, max_value=80))
@settings(max_examples=60)
def test_reprice_preserves_everything_but_scream_slots(tally, new_k):
    repriced = reprice_scream_slots(tally, old_k=5, new_k=new_k)
    original = tally.as_dict()
    changed = repriced.as_dict()
    for key in original:
        if key == "scream_slots":
            assert changed[key] == tally.scream_calls * new_k
        else:
            assert changed[key] == original[key]


@given(tallies())
@settings(max_examples=40)
def test_execution_time_additive_over_tallies(tally):
    timing = TimingModel()
    doubled = StepTally(**{name: 2 * count for name, count in tally.as_dict().items()})
    assert timing.execution_time(doubled) == (
        2.0 * timing.execution_time(tally)
    ) or abs(
        timing.execution_time(doubled) - 2.0 * timing.execution_time(tally)
    ) < 1e-12
