"""Property tests for the epoch loop and stability metrics.

The load-bearing property: whenever the epoch's schedule serves the full
backlog snapshot and fits (with overhead) inside the epoch, backlogs stay
bounded — served work keeps up with offered work, whatever the workload's
shape.  Plus conservation through the full closed loop and deterministic
checks of the stability classifiers on synthetic traces.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.experiments.common import grid_scenario
from repro.traffic import (
    EpochConfig,
    EpochRecord,
    PoissonArrivals,
    TrafficTrace,
    backlog_slope,
    centralized_scheduler,
    is_stable,
    run_epochs,
    serialized_scheduler,
    stability_knee,
    stability_margin,
    summarize_trace,
)
from repro.traffic.stability import series_slope
from tests.conftest import ConstantBitRate


@pytest.fixture(scope="module")
def small_mesh():
    """A 4x4 grid scenario (network, gateways, forest link set)."""
    scenario = grid_scenario(2000.0, rep=0, rows=4, cols=4, n_gateways=2)
    return scenario


@settings(max_examples=10, deadline=None)
@given(
    rate=st.floats(min_value=0.001, max_value=0.01),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    bursty=st.booleans(),
)
# Backlog [0 4 0 1 0 3 0 5], 49 arrivals: the trailing slope (1.2) and the
# final backlog (5 against a gate of 3.06) both read growth, but the queue
# empties every other epoch.
@example(rate=0.001, seed=171, bursty=True)
def test_sufficient_service_keeps_backlog_bounded(small_mesh, rate, seed, bursty):
    """Demand-covering schedules within the epoch budget => bounded backlogs.

    The serialized scheduler serves every snapshot packet once per cycle and
    the epoch is sized so the full snapshot (old backlog + new arrivals,
    each needing at most `max depth` hops) always fits, so service per epoch
    covers arrivals per epoch and queues must not grow without bound.
    """
    links = small_mesh.links
    n = small_mesh.network.n_nodes
    factory = PoissonArrivals if bursty else ConstantBitRate
    generator = factory(n, rate, gateways=small_mesh.gateways, seed=seed)
    config = EpochConfig(epoch_slots=400, n_epochs=8)
    trace = run_epochs(links, generator, serialized_scheduler(), config)

    trace.queues.check_conservation()
    # Worst-case one epoch's arrivals times the deepest route, plus slack for
    # packets landing after their relay link's slots already passed.
    per_epoch = rate * n * config.epoch_slots
    bound = 4 * max(per_epoch, 10.0)
    assert max(trace.backlog_series()) <= bound
    assert is_stable(trace)


def test_closed_loop_conservation_with_rescheduling(small_mesh):
    """Arrivals == delivered + queued after many greedy rescheduling epochs."""
    links = small_mesh.links
    generator = PoissonArrivals(
        small_mesh.network.n_nodes, 0.01, gateways=small_mesh.gateways, seed=3
    )
    scheduler = centralized_scheduler(small_mesh.network.model)
    trace = run_epochs(
        links, generator, scheduler, EpochConfig(epoch_slots=200, n_epochs=6)
    )
    trace.queues.check_conservation()
    assert trace.arrivals_total == trace.queues.arrivals_total
    assert trace.delivered_total == trace.queues.delivered_total
    assert trace.delivered_total > 0
    # Delivered packets crossed at least one hop each.
    assert trace.queues.served_total >= trace.delivered_total


def test_overload_is_detected(small_mesh):
    """A rate far beyond serialized capacity must read unstable."""
    generator = ConstantBitRate(
        small_mesh.network.n_nodes, 0.2, gateways=small_mesh.gateways, seed=1
    )
    trace = run_epochs(
        small_mesh.links,
        generator,
        serialized_scheduler(),
        EpochConfig(epoch_slots=100, n_epochs=8, divergence_factor=4.0),
    )
    assert trace.diverged or not is_stable(trace)
    metrics = summarize_trace(trace, 0.2)
    assert not metrics.stable


def _trace(backlogs, arrivals_per_epoch=100, diverged=False):
    records = [
        EpochRecord(
            epoch=e,
            arrivals=arrivals_per_epoch,
            served=0,
            delivered=0,
            backlog_end=b,
            demand_scheduled=0,
            schedule_length=0,
            overhead_slots=0,
        )
        for e, b in enumerate(backlogs)
    ]
    return TrafficTrace(config=EpochConfig(), records=records, diverged=diverged)


class TestStabilityClassifiers:
    def test_flat_backlog_is_stable(self):
        assert is_stable(_trace([5, 3, 6, 4, 5, 4]))

    def test_linear_growth_is_unstable(self):
        assert not is_stable(_trace([100, 200, 300, 400, 500, 600]))

    def test_small_noise_is_not_flagged(self):
        # Positive fitted slope but near-empty queues: the magnitude gate
        # keeps regression noise from reading as instability.
        assert is_stable(_trace([32, 28, 3, 14, 0, 9, 23, 26]))

    def test_a_queue_that_drains_in_the_tail_is_stable(self):
        # Slope 1.2 pkt/epoch over a 1.0 floor, final backlog 5 over a gate
        # of 3: a few packets of integer noise, not accumulation.
        trace = _trace([0, 4, 0, 1, 0, 3, 0, 5], arrivals_per_epoch=6)
        assert backlog_slope(trace) == pytest.approx(1.2)
        assert stability_margin(trace) == 0.0
        assert is_stable(trace)
        # The same shape that never empties still reads as growth.
        assert not is_stable(_trace([2, 6, 2, 3, 2, 5, 2, 7], arrivals_per_epoch=6))

    def test_divergence_flag_wins(self):
        assert not is_stable(_trace([1, 1, 1], diverged=True))

    def test_knee_is_last_stable_before_first_unstable(self):
        points = [
            summarize_trace(_trace([0, 0, 0, 0]), rate)
            for rate in (0.002, 0.004)
        ] + [
            summarize_trace(
                _trace([200, 400, 600, 800]), 0.006
            ),
            summarize_trace(_trace([0, 0, 0, 0]), 0.008),  # past the knee
        ]
        assert stability_knee(points) == 0.004

    def test_knee_none_when_lowest_rate_unstable(self):
        points = [summarize_trace(_trace([200, 400, 600, 800]), 0.002)]
        assert stability_knee(points) is None

    def test_knee_is_top_of_sweep_when_every_point_is_stable(self):
        # No unstable point was found: the largest tested rate is returned
        # as a lower bound on the true knee.
        points = [
            summarize_trace(_trace([0, 0, 0, 0]), rate)
            for rate in (0.002, 0.004, 0.008)
        ]
        assert stability_knee(points) == 0.008


def _oracle_slope(y):
    """The least-squares slope ``numpy.polynomial`` fits (0 for constants)."""
    if np.all(y == y[0]):
        return 0.0
    coef = np.polynomial.Polynomial.fit(np.arange(y.size, dtype=float), y, 1).convert().coef
    return float(coef[1]) if coef.size > 1 else 0.0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=10**7),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        min_size=2,
        max_size=120,
    )
)
def test_closed_form_slope_matches_the_polynomial_fit(values):
    """To 1e-12 relative, or 1e-12 of the series' magnitude where the slope
    is so near 0 that the fit's own rounding dominates (a symmetric series
    fits ~1e-14 there, the closed form exactly 0.0)."""
    y = np.asarray(values, dtype=float)
    scale = float(np.abs(y).max())
    assert math.isclose(series_slope(y), _oracle_slope(y), rel_tol=1e-12, abs_tol=1e-12 * scale)


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
    st.booleans(),
)
def test_symmetric_and_constant_series_have_exactly_zero_slope(half, odd):
    mirrored = half + half[-2::-1] if odd else half + half[::-1]
    assert series_slope(mirrored) == 0.0
    assert series_slope([half[0]] * len(mirrored)) == 0.0
    assert series_slope(half[:1]) == 0.0 and series_slope([]) == 0.0
