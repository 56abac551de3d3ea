"""Unit tests for the flow-session layer (repro.traffic.flows) and the
admission controllers (repro.traffic.admission)."""

import numpy as np
import pytest

from repro.scheduling.links import LinkSet
from repro.traffic import (
    AdmissionController,
    Backpressure,
    EpochConfig,
    Flow,
    FlowConfig,
    FlowWorkload,
    KneeTracker,
    LinkQueues,
    NoAdmission,
    StaticCap,
    flow_delay_percentile,
    flow_delays,
    make_controller,
    route_of,
    run_epochs,
    serialized_scheduler,
)
from repro.traffic.admission import (
    AIMD_DECREASE,
    CAP_FLOOR,
    DRAIN_HORIZON,
    HOT_SLOWDOWN,
    _GrowthWindow,
)
from repro.traffic.epoch import EpochRecord
from repro.traffic.flows import CBR_RATE, MEAN_FLOW_SIZE


def chain_links(n=4):
    """A chain 3 -> 2 -> 1 -> 0 with node 0 the gateway."""
    heads = np.arange(1, n)
    tails = np.arange(0, n - 1)
    return LinkSet(
        heads=heads, tails=tails, demand=np.zeros(n - 1, np.int64), ids=heads
    )


def record(epoch=0, arrivals=0, served=0, delivered=0, backlog=0):
    return EpochRecord(
        epoch=epoch,
        arrivals=arrivals,
        served=served,
        delivered=delivered,
        backlog_end=backlog,
        demand_scheduled=0,
        schedule_length=0,
        overhead_slots=0,
    )


class TestRoutes:
    def test_route_follows_chain_to_gateway(self):
        links = chain_links()
        np.testing.assert_array_equal(route_of(links, 3), [2, 1, 0])
        np.testing.assert_array_equal(route_of(links, 1), [0])

    def test_gateway_has_no_route(self):
        with pytest.raises(ValueError, match="heads no link"):
            route_of(chain_links(), 0)


class TestFlowConfig:
    def test_offered_rate_round_trips(self):
        cfg = FlowConfig.for_offered_rate(0.02, n_sources=10, epoch_slots=100)
        assert cfg.session_rate * MEAN_FLOW_SIZE / (10 * 100) == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(session_rate=-1)
        with pytest.raises(ValueError):
            FlowConfig(elastic_rate=0.0)
        with pytest.raises(ValueError):
            FlowConfig(max_size_factor=0.5)

    def test_flow_validation(self):
        with pytest.raises(ValueError, match="klass"):
            Flow(0, 1, "video", 0.1, 10, 0, np.array([0]))
        with pytest.raises(ValueError, match="size"):
            Flow(0, 1, "cbr", 0.1, 0, 0, np.array([0]))


class TestFlowWorkload:
    def test_same_seed_replays_identically(self):
        links = chain_links(6)
        cfg = FlowConfig(session_rate=3.0)
        a = FlowWorkload(links, cfg, seed=5)
        b = FlowWorkload(links, cfg, seed=5)
        for epoch in range(6):
            np.testing.assert_array_equal(
                a.arrivals(epoch, 100), b.arrivals(epoch, 100)
            )

    def test_sequential_epochs_enforced_and_reset_rewinds(self):
        links = chain_links(6)
        wl = FlowWorkload(links, FlowConfig(session_rate=3.0), seed=5)
        first = wl.arrivals(0, 100)
        with pytest.raises(ValueError, match="expected epoch"):
            wl.arrivals(2, 100)
        wl.reset()
        np.testing.assert_array_equal(wl.arrivals(0, 100), first)

    def test_long_run_offered_rate_matches_config(self):
        links = chain_links(8)
        rate = 0.03
        wl = FlowWorkload(
            links,
            FlowConfig.for_offered_rate(rate, links.n_links, 100),
            seed=9,
        )
        total = sum(int(wl.arrivals(e, 100).sum()) for e in range(400))
        measured = total / (400 * 100 * links.n_links)
        # Tight tolerance on purpose: the size distribution's x_m is
        # calibrated for the *truncated* mean, so the offered rate must
        # not sit systematically below the nominal lambda.
        assert measured == pytest.approx(rate, rel=0.08)

    def test_gateway_never_sources(self):
        links = chain_links(6)
        wl = FlowWorkload(links, FlowConfig(session_rate=5.0), seed=5)
        for epoch in range(10):
            assert wl.arrivals(epoch, 100)[0] == 0  # node 0 is the gateway

    def test_completed_flows_depart(self):
        links = chain_links(4)
        # Sizes are capped at MEAN_FLOW_SIZE and every bucket fills at
        # least that many tokens per 2000-slot epoch (CBR_RATE x 2000).
        cfg = FlowConfig(session_rate=2.0, elastic_rate=1.0, max_size_factor=1.0)
        wl = FlowWorkload(links, cfg, seed=5)
        for epoch in range(5):
            wl.arrivals(epoch, 2000)
        done = [f for f in wl.flows if f.done_epoch is not None]
        assert done, "short flows at high rate should complete"
        for f in done:
            assert f.remaining == 0
            assert f.emitted == f.size


class TestControllers:
    def test_registry_and_unknown_name(self):
        assert isinstance(make_controller("none"), NoAdmission)
        assert isinstance(make_controller("knee-tracker"), KneeTracker)
        assert isinstance(make_controller("backpressure"), Backpressure)
        assert isinstance(make_controller("static-cap", cap=1.0), StaticCap)
        with pytest.raises(ValueError, match="unknown admission controller"):
            make_controller("erlang")
        with pytest.raises(ValueError, match="needs cap"):
            make_controller("static-cap")

    def test_a_window_under_its_gate_is_trivially_draining(self):
        # The backlog rises, but stays under the gate (1.5x the mean
        # arrivals of 100): not congestion, although the slope of 10 alone
        # would miss the horizon test ((150 - 30) / 16 = 7.5 per epoch).
        window = _GrowthWindow(window=4)
        for backlog in (0.0, 10.0, 20.0, 30.0):
            window.push(100.0, backlog)
        assert window.filled and not window.gated
        assert window.slope > (window.gate_level - 30.0) / DRAIN_HORIZON
        assert window.draining_within(DRAIN_HORIZON)

    def test_static_cap_blocks_and_throttles(self):
        links = chain_links(6)
        wl = FlowWorkload(
            links,
            FlowConfig(session_rate=8.0, elastic_rate=0.5),
            controller=StaticCap(cap=1.0),
            seed=5,
        )
        for epoch in range(6):
            wl.arrivals(epoch, 100)
        assert wl.sessions_blocked > 0
        assert wl.admitted_rate() <= 1.0 + 1e-9

    def test_knee_tracker_caps_on_growth_and_probes_when_stable(self):
        tracker = KneeTracker(window=3)
        links = chain_links(4)
        wl = FlowWorkload(links, FlowConfig(), controller=tracker, seed=5)
        wl._epoch_slots = 100
        queues = LinkQueues(links)
        # Three epochs of hard backlog growth: the window fills, the gate
        # (1.5x arrivals) and slope both trip, and the cap snaps to the
        # best delivered rate seen (50 / 100 slots).
        for epoch, backlog in enumerate((500, 1000, 1500)):
            tracker.observe(
                record(epoch, arrivals=200, delivered=50, backlog=backlog),
                queues,
                wl,
            )
        assert tracker.cap == pytest.approx(0.5)
        # Cooldown holds the cap; afterwards flat backlog that still sits
        # far above the gate is a standing queue -> multiplicative dip.
        for epoch in range(3, 3 + tracker.window):
            tracker.observe(
                record(epoch, arrivals=100, delivered=50, backlog=1500),
                queues,
                wl,
            )
        assert tracker.cap == pytest.approx(0.5)  # cooldown held it
        tracker.observe(
            record(7, arrivals=100, delivered=50, backlog=1500), queues, wl
        )
        assert tracker.cap == pytest.approx(0.5 * AIMD_DECREASE)

    def test_knee_tracker_cap_never_collapses_to_zero(self):
        """A growth signal over a window that delivered *nothing* must not
        snap the cap to 0 — both AIMD moves are multiplicative, so a zero
        cap would block every future session forever."""
        tracker = KneeTracker(window=2)
        links = chain_links(4)
        wl = FlowWorkload(links, FlowConfig(), controller=tracker, seed=5)
        wl._epoch_slots = 100
        queues = LinkQueues(links)
        for epoch, backlog in enumerate((800, 1600, 2400, 3200, 4000, 4800)):
            tracker.observe(
                record(epoch, arrivals=200, delivered=0, backlog=backlog),
                queues,
                wl,
            )
        assert tracker.cap == pytest.approx(CAP_FLOOR)
        assert tracker.cap > 0

    def test_knee_tracker_probes_additively_when_healthy(self):
        tracker = KneeTracker(window=2)
        tracker.cap = 1.0
        links = chain_links(4)
        wl = FlowWorkload(links, FlowConfig(), controller=tracker, seed=5)
        wl._epoch_slots = 100
        queues = LinkQueues(links)
        for epoch in range(3):
            tracker.observe(
                record(epoch, arrivals=100, delivered=90, backlog=10), queues, wl
            )
        assert tracker.cap > 1.0

    def test_backpressure_throttles_routes_through_hot_links(self):
        links = chain_links(6)
        bp = Backpressure()
        wl = FlowWorkload(links, FlowConfig(), controller=bp, seed=5)
        queues = LinkQueues(links)
        queues.backlog[:] = [100, 0, 0, 0, 0]  # link 0 (into the gateway) hot
        bp.observe(record(), queues, wl)
        through_hot = Flow(0, 5, "elastic", 0.1, 10, 0, route_of(links, 5))
        assert not bp.admit(through_hot, wl)
        assert bp.throttle(through_hot, wl) == pytest.approx(HOT_SLOWDOWN)

    def test_feedback_hungry_controller_without_observe_raises(self):
        """A knee tracker whose observe() is never wired must fail loudly,
        not silently degrade to the 'none' baseline."""
        links = chain_links(6)
        wl = FlowWorkload(links, FlowConfig(), controller=KneeTracker(), seed=5)
        wl.arrivals(0, 100)
        with pytest.raises(RuntimeError, match="on_epoch=workload.observe"):
            wl.arrivals(1, 100)
        # Wired feedback clears the guard ...
        wl.reset()
        queues = LinkQueues(links)
        wl.arrivals(0, 100)
        wl.observe(record(0), queues)
        wl.arrivals(1, 100)
        # ... and feedback-free controllers never needed it.
        bare = FlowWorkload(
            links, FlowConfig(), controller=StaticCap(cap=1.0), seed=5
        )
        for epoch in range(3):
            bare.arrivals(epoch, 100)


class _AdmitAfter(AdmissionController):
    """Deterministic test controller: reject every offer before ``epoch``,
    admit everything from then on (reads the workload's epoch counter)."""

    name = "admit-after"

    def __init__(self, epoch):
        self.epoch = epoch

    def fresh(self):
        return _AdmitAfter(self.epoch)

    def admit(self, flow, session):
        # _next_epoch was already advanced when offers are processed, so the
        # epoch currently being generated is _next_epoch - 1.
        return session._next_epoch - 1 >= self.epoch


class TestBlockedSessions:
    def test_a_blocked_session_is_blocked_for_good(self):
        # The doors open at epoch 2: what was turned away before then never
        # comes back, what is offered afterwards gets in.
        wl = FlowWorkload(
            chain_links(6),
            FlowConfig(session_rate=2.0),
            controller=_AdmitAfter(2),
            seed=5,
        )
        offered_after = []
        for epoch in range(6):
            wl.arrivals(epoch, 100)
            offered_after.append(wl.sessions_offered)
        assert 0 < offered_after[1] < offered_after[-1]
        assert wl.sessions_blocked == offered_after[1]
        admitted = wl.sessions_offered - wl.sessions_blocked
        assert admitted == offered_after[-1] - offered_after[1] == len(wl.flows)
        assert wl.blocking_probability == offered_after[1] / offered_after[-1]


class TestAdmittedRateAggregates:
    def test_aggregates_match_an_explicit_scan_under_churn(self):
        links = chain_links(8)
        wl = FlowWorkload(
            links,
            FlowConfig(session_rate=6.0, max_size_factor=2.0),
            controller=StaticCap(cap=0.4),
            seed=11,
        )
        for epoch in range(12):
            wl.arrivals(epoch, 60)
            for klass in (None, "cbr", "elastic"):
                scanned = sum(
                    f.rate
                    for f in wl.active
                    if klass is None or f.klass == klass
                )
                assert wl.admitted_rate(klass) == pytest.approx(scanned, abs=1e-9)

    def test_rate_clamped_at_zero_after_full_departure(self):
        # Sizes are capped at MEAN_FLOW_SIZE (30) packets and each flow's
        # bucket allows at least CBR_RATE x 2000 = 40 per epoch, so every
        # admitted session emits fully and departs within its own arrival
        # epoch — the active set is empty (and the aggregate exactly zero)
        # after every epoch.
        assert CBR_RATE * 2000 >= MEAN_FLOW_SIZE
        links = chain_links(4)
        wl = FlowWorkload(
            links,
            FlowConfig(session_rate=2.0, max_size_factor=1.0, elastic_rate=1.0),
            seed=3,
        )
        for epoch in range(8):
            wl.arrivals(epoch, 2000)
            assert wl.active == []
            assert wl.admitted_rate() == 0.0
            assert wl.admitted_rate("cbr") == 0.0
            assert wl.admitted_rate("elastic") == 0.0
        assert wl.flows, "sessions should actually have churned through"

    def test_regionless_controller_has_no_regional_aggregate(self):
        links = chain_links(4)
        wl = FlowWorkload(links, FlowConfig(session_rate=2.0), seed=3)
        wl.arrivals(0, 50)
        assert wl.admitted_rate_in_region(0) == 0.0


class TestFlowDelays:
    def test_per_flow_delays_attributed_through_the_loop(self):
        links = chain_links(6)
        wl = FlowWorkload(
            links,
            FlowConfig(session_rate=4.0, max_size_factor=2.0),
            seed=5,
        )
        # The serialized round-robin scheduler is enough to deliver packets.
        trace = run_epochs(
            links,
            wl,
            serialized_scheduler(),
            EpochConfig(epoch_slots=60, n_epochs=8),
            on_epoch=wl.observe,
        )
        delays = flow_delays(wl, trace.queues)
        assert delays, "some flow should have delivered packets"
        assert all(d >= 1 for d in delays.values())
        assert set(delays) <= {f.fid for f in wl.flows}
        p99 = flow_delay_percentile(wl, trace.queues)
        assert p99 >= min(delays.values())
        assert p99 <= max(delays.values()) + 1e-9

    def test_no_deliveries_gives_nan(self):
        links = chain_links(4)
        wl = FlowWorkload(links, FlowConfig(session_rate=1.0), seed=5)
        queues = LinkQueues(links)
        assert np.isnan(flow_delay_percentile(wl, queues))
