"""Property tests for the epoch loop and stability metrics.

The load-bearing property: whenever the epoch's schedule serves the full
backlog snapshot and fits (with overhead) inside the epoch, backlogs stay
bounded — served work keeps up with offered work, whatever the workload's
shape.  Plus conservation through the full closed loop and deterministic
checks of the stability classifiers on synthetic traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import grid_scenario
from repro.traffic import (
    ConstantBitRate,
    EpochConfig,
    EpochRecord,
    PoissonArrivals,
    TrafficTrace,
    centralized_scheduler,
    is_stable,
    run_epochs,
    serialized_scheduler,
    stability_knee,
    summarize_trace,
)


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
