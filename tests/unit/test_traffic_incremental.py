"""Unit tests for the incremental-rescheduling layer.

Drift metrics, ScheduleCache decision logic (hit / patch / recompute),
patch correctness against the exact SINR model, the overhead clamp in the
epoch loop, and the de-flaked stability classifiers.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import grid_scenario
from repro.obs import Obs, ObsConfig
from repro.scheduling.feasibility import infeasible_slots
from repro.scheduling.greedy_physical import greedy_physical
from repro.traffic import (
    DRIFT_THRESHOLD,
    EpochConfig,
    EpochRecord,
    EpochSchedule,
    PoissonArrivals,
    ScheduleCache,
    TrafficTrace,
    backlog_slope,
    centralized_scheduler,
    drift_l1,
    is_borderline,
    majority_stable,
    patch_schedule,
    run_epochs,
    stability_margin,
    stability_sweep,
)
from repro.traffic.epoch import SLOT_SECONDS
from tests.conftest import (
    BufferRecorder,
    ConstantBitRate,
    counter_value,
    drift_threshold,
    open_slot,
    schedule_rates,
)


@pytest.fixture(scope="module")
def mesh():
    """A small grid scenario with positive demands on every link."""
    return grid_scenario(2000.0, rep=0, rows=4, cols=4, n_gateways=2)


# ---------------------------------------------------------------------------
# Drift metrics
# ---------------------------------------------------------------------------


class TestDriftMetrics:
    def test_identical_vectors_have_zero_drift(self):
        b = np.array([3, 0, 5, 1])
        assert drift_l1(b, b) == 0.0

    def test_l1_normalizes_by_baseline_mass(self):
        base = np.array([4, 4, 4, 4])  # mass 16
        current = np.array([4, 4, 4, 12])  # moved 8
        assert drift_l1(current, base) == pytest.approx(0.5)

    def test_zero_baseline_uses_unit_floor(self):
        base = np.zeros(3, dtype=int)
        current = np.array([2, 0, 0])
        assert drift_l1(current, base) == pytest.approx(2.0)

    def test_drift_is_symmetric_in_the_difference(self):
        base = np.array([5, 5])
        assert drift_l1(np.array([3, 5]), base) == drift_l1(np.array([7, 5]), base)


# ---------------------------------------------------------------------------
# patch_schedule
# ---------------------------------------------------------------------------


class TestPatchSchedule:
    def test_patched_schedule_matches_new_demand_exactly(self, mesh):
        links, model = mesh.links, mesh.network.model
        cached = greedy_physical(links, model)
        rng = np.random.default_rng(7)
        new_demand = rng.integers(0, 6, size=links.n_links)
        new_links = replace(links, demand=new_demand)

        patched = patch_schedule(cached, new_links, model)
        assert patched is not None
        assert np.array_equal(patched.allocations(), new_demand)
        assert patched.satisfies_demand()

    def test_patched_schedule_is_sinr_feasible(self, mesh):
        links, model = mesh.links, mesh.network.model
        cached = greedy_physical(links, model)
        new_links = replace(links, demand=links.demand * 2)
        patched = patch_schedule(cached, new_links, model)
        assert patched is not None
        assert not infeasible_slots(patched, model)

    def test_emptied_links_are_dropped_and_slots_pruned(self, mesh):
        links, model = mesh.links, mesh.network.model
        cached = greedy_physical(links, model)
        new_demand = np.zeros(links.n_links, dtype=np.int64)
        new_demand[0] = int(links.demand[0])  # only link 0 keeps traffic
        patched = patch_schedule(cached, replace(links, demand=new_demand), model)
        assert patched is not None
        allocations = patched.allocations()
        assert allocations[0] == new_demand[0]
        assert allocations[1:].sum() == 0
        # Every remaining slot serves link 0; none are empty.
        assert patched.length == new_demand[0]
        assert all(len(slot) == 1 for slot in patched.slots)

    def test_max_length_forces_fallback(self, mesh):
        links, model = mesh.links, mesh.network.model
        cached = greedy_physical(links, model)
        grown = replace(links, demand=links.demand * 3)
        assert patch_schedule(cached, grown, model, max_length=2) is None

    def test_mismatched_link_universe_raises(self, mesh):
        links, model = mesh.links, mesh.network.model
        cached = greedy_physical(links, model)
        smaller = links.subset(np.arange(links.n_links - 1))
        with pytest.raises(ValueError, match="link universe"):
            patch_schedule(cached, smaller, model)

    def test_cached_schedule_is_not_mutated(self, mesh):
        links, model = mesh.links, mesh.network.model
        cached = greedy_physical(links, model)
        before = [list(s.links) for s in cached.slots]
        patch_schedule(cached, replace(links, demand=links.demand * 2), model)
        assert [list(s.links) for s in cached.slots] == before


# ---------------------------------------------------------------------------
# ScheduleCache
# ---------------------------------------------------------------------------


def _counting_scheduler(model):
    """A centralized scheduler that counts invocations."""
    calls = []

    def schedule(links, epoch):
        calls.append(epoch)
        return EpochSchedule(greedy_physical(links, model), overhead_seconds=1.0)

    return schedule, calls


class TestScheduleCache:
    def test_first_call_recomputes(self, mesh):
        base, calls = _counting_scheduler(mesh.network.model)
        cache = ScheduleCache(base)
        planned = cache(mesh.links, 0)
        assert calls == [0]
        assert planned.overhead_seconds == 1.0
        assert cache.last_decision.recomputed
        assert cache.last_decision.drift == float("inf")

    def test_hit_charges_zero_overhead_and_skips_base(self, mesh):
        base, calls = _counting_scheduler(mesh.network.model)
        cache = ScheduleCache(base)
        first = cache(mesh.links, 0)
        again = cache(mesh.links, 1)  # identical demand: drift 0
        assert calls == [0]
        assert again.overhead_seconds == 0.0
        assert again.schedule is first.schedule
        assert cache.last_decision.hit
        assert cache.stats.hits == 1 and cache.stats.recomputes == 1

    def test_drift_above_threshold_recomputes(self, mesh):
        base, calls = _counting_scheduler(mesh.network.model)
        cache = ScheduleCache(base)
        cache(mesh.links, 0)
        shifted = replace(mesh.links, demand=mesh.links.demand * 3)
        planned = cache(shifted, 1)
        assert calls == [0, 1]
        assert planned.overhead_seconds == 1.0
        assert cache.last_decision.recomputed

    def test_patch_policy_repairs_instead_of_recomputing(self, mesh):
        base, calls = _counting_scheduler(mesh.network.model)
        cache = ScheduleCache(
            base, policy="patch", model=mesh.network.model
        )
        cache(mesh.links, 0)
        shifted = replace(mesh.links, demand=mesh.links.demand * 2)
        planned = cache(shifted, 1)
        assert calls == [0]  # repaired, not re-run
        assert planned.overhead_seconds == 0.0
        assert cache.last_decision.patched
        assert np.array_equal(planned.schedule.allocations(), shifted.demand)

    def test_patch_rebases_the_drift_baseline(self, mesh):
        base, calls = _counting_scheduler(mesh.network.model)
        cache = ScheduleCache(
            base, policy="patch", model=mesh.network.model
        )
        cache(mesh.links, 0)
        shifted = replace(mesh.links, demand=mesh.links.demand * 2)
        cache(shifted, 1)  # patched; baseline is now the doubled demand
        again = cache(shifted, 2)
        assert again.overhead_seconds == 0.0
        assert cache.last_decision.hit  # drift 0 vs the rebased baseline

    def test_headroom_scales_threshold(self, mesh):
        base, _ = _counting_scheduler(mesh.network.model)
        tight = ScheduleCache(base)
        roomy = ScheduleCache(base, epoch_slots=10_000)
        tight(mesh.links, 0)
        roomy(mesh.links, 0)
        assert tight.effective_threshold() == DRIFT_THRESHOLD
        assert roomy.effective_threshold() > DRIFT_THRESHOLD  # many cycles fit: scaled up

    def test_patch_policy_requires_model(self, mesh):
        base, _ = _counting_scheduler(mesh.network.model)
        with pytest.raises(ValueError, match="PhysicalInterferenceModel"):
            ScheduleCache(base, policy="patch")

    def test_unknown_policy_rejected(self, mesh):
        base, _ = _counting_scheduler(mesh.network.model)
        with pytest.raises(ValueError, match="policy"):
            ScheduleCache(base, policy="sometimes")


# ---------------------------------------------------------------------------
# Epoch-loop integration: config validation, accounting, overhead clamp
# ---------------------------------------------------------------------------


class TestEpochLoopIntegration:
    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="reschedule_policy"):
            EpochConfig(reschedule_policy="never")

    def test_cache_hits_recorded_and_charge_zero_overhead(self, mesh):
        generator = ConstantBitRate(
            mesh.network.n_nodes, 0.01, gateways=mesh.gateways, seed=5
        )
        config = EpochConfig(epoch_slots=200, n_epochs=6)
        scheduler = ScheduleCache(
            centralized_scheduler(mesh.network.model, overhead_seconds=1.0),
            epoch_slots=200,
        )
        with drift_threshold(10.0):  # everything after epoch 0 hits
            trace = run_epochs(mesh.links, generator, scheduler, config)
        assert trace.records[0].cache_hit is False
        assert all(r.cache_hit for r in trace.records[1:])
        assert all(r.overhead_slots == 0 for r in trace.records[1:])
        assert trace.cache_hit_rate == pytest.approx(5 / 6)
        # The recompute epoch's infinite "no cache yet" drift is recorded as 0.
        assert trace.records[0].drift == 0.0
        trace.queues.check_conservation()

    def test_hit_rate_ignores_zero_demand_epochs(self, mesh):
        """Epochs that never invoke the scheduler count neither way."""
        # Rate low enough that fluid accumulation leaves some epochs empty.
        generator = ConstantBitRate(
            mesh.network.n_nodes, 0.004, gateways=mesh.gateways, seed=1
        )
        config = EpochConfig(epoch_slots=100, n_epochs=6)
        scheduler = ScheduleCache(
            centralized_scheduler(mesh.network.model),
            epoch_slots=100,
        )
        with drift_threshold(10.0):
            trace = run_epochs(mesh.links, generator, scheduler, config)
        requests = sum(1 for r in trace.records if r.demand_scheduled > 0)
        assert requests < trace.n_epochs_run  # some epochs asked for nothing
        assert trace.cache_hit_rate == pytest.approx(
            (trace.cache_hits + trace.patched_epochs) / requests
        )

    def test_patch_epochs_recorded(self, mesh):
        generator = PoissonArrivals(
            mesh.network.n_nodes, 0.02, gateways=mesh.gateways, seed=9
        )
        config = EpochConfig(epoch_slots=200, n_epochs=6, reschedule_policy="patch")
        scheduler = ScheduleCache(
            centralized_scheduler(mesh.network.model),
            policy="patch",
            model=mesh.network.model,
            epoch_slots=200,
        )
        with drift_threshold(0.0):  # never hit: always patch (or recompute)
            trace = run_epochs(mesh.links, generator, scheduler, config)
        assert trace.patched_epochs > 0
        assert all(
            r.overhead_slots == 0 for r in trace.records if r.patched or r.cache_hit
        )
        trace.queues.check_conservation()

    def test_cache_books_every_decision_under_the_epoch_engine(self, mesh):
        """Bound by ``run_epochs``, the cache books one ``cache.requests``
        and one outcome counter per scheduled epoch, all labelled
        ``engine="epoch"``, and runs each patch inside an
        ``incremental.patch`` span; the counters match the records."""
        generator = PoissonArrivals(
            mesh.network.n_nodes, 0.02, gateways=mesh.gateways, seed=9
        )
        config = EpochConfig(epoch_slots=200, n_epochs=6, reschedule_policy="patch")
        obs = Obs.create(ObsConfig(level="spans"))
        obs.recorder = BufferRecorder()
        trace = run_epochs(
            mesh.links, generator, centralized_scheduler(mesh.network.model),
            config, model=mesh.network.model, obs=obs,
        )
        registry = obs.registry
        requests = sum(1 for r in trace.records if r.demand_scheduled > 0)
        booked = {
            outcome: counter_value(registry, f"cache.{outcome}", engine="epoch")
            for outcome in ("requests", "hits", "patches", "recomputes")
        }
        assert booked == {
            "requests": requests,
            "hits": trace.cache_hits,
            "patches": trace.patched_epochs,
            "recomputes": requests - trace.cache_hits - trace.patched_epochs,
        }
        assert trace.patched_epochs > 0
        patch_spans = [s for s in obs.recorder.spans if s.name == "incremental.patch"]
        assert len(patch_spans) >= trace.patched_epochs
        assert all(s.labels["engine"] == "epoch" for s in patch_spans)

    def test_overhead_at_least_epoch_serves_zero_slots(self, mesh):
        """Regression: an absurdly slow scheduler must serve exactly nothing.

        Overhead >= epoch_slots used to leave the recorded overhead unclamped;
        serving must be 0 with no negative remainder or modulo wrap, and
        conservation must hold (all arrivals stay queued).
        """
        generator = ConstantBitRate(
            mesh.network.n_nodes, 0.05, gateways=mesh.gateways, seed=2
        )
        config = EpochConfig(epoch_slots=50, n_epochs=3)
        # 1e6 seconds of protocol time >> 50 slots * 0.04 s.
        scheduler = centralized_scheduler(mesh.network.model, overhead_seconds=1e6)
        trace = run_epochs(mesh.links, generator, scheduler, config)
        assert all(r.served == 0 for r in trace.records)
        assert all(r.delivered == 0 for r in trace.records)
        assert all(r.overhead_slots == config.epoch_slots for r in trace.records)
        assert trace.delivered_total == 0
        assert trace.records[-1].backlog_end == trace.arrivals_total
        trace.queues.check_conservation()

    def test_overhead_just_under_epoch_still_serves(self, mesh):
        generator = ConstantBitRate(
            mesh.network.n_nodes, 0.05, gateways=mesh.gateways, seed=2
        )
        config = EpochConfig(epoch_slots=50, n_epochs=3)
        # 49 slots of overhead: exactly one data slot left per epoch.
        scheduler = centralized_scheduler(
            mesh.network.model, overhead_seconds=49 * SLOT_SECONDS
        )
        trace = run_epochs(mesh.links, generator, scheduler, config)
        assert all(r.overhead_slots == 49 for r in trace.records)
        assert trace.queues.served_total > 0
        trace.queues.check_conservation()


# ---------------------------------------------------------------------------
# De-flaked stability classifiers
# ---------------------------------------------------------------------------


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
    trace = TrafficTrace(config=EpochConfig(), records=records)
    trace.diverged = diverged
    return trace


class TestBacklogSlope:
    def test_constant_tail_returns_exact_zero_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RankWarning fails the test
            assert backlog_slope(_trace([7, 7, 7, 7, 7, 7])) == 0.0

    def test_degenerate_short_series_return_zero(self):
        assert backlog_slope(_trace([])) == 0.0
        assert backlog_slope(_trace([42])) == 0.0

    def test_symmetric_tail_with_exact_zero_slope(self):
        # A tail symmetric about its midpoint pairs off exactly; the earlier
        # numpy.polynomial fit trimmed its zero linear term to an IndexError.
        assert backlog_slope(_trace([0, 0, 0, 3, 0, 3])) == 0.0
        assert backlog_slope(_trace([0, 0, 0, 0, 1, 2, 2, 1])) == 0.0

    def test_linear_series_recovers_slope(self):
        assert backlog_slope(_trace([0, 10, 20, 30, 40, 50])) == pytest.approx(10.0)

    def test_matches_least_squares_on_noisy_tail(self):
        series = [3, 1, 4, 1, 5, 9, 2, 6]
        tail = np.asarray(series[4:], dtype=float)
        expected = np.polyfit(np.arange(4.0), tail, 1)[0]
        assert backlog_slope(_trace(series)) == pytest.approx(expected)


class TestBorderlineMachinery:
    def test_decisively_stable_is_not_borderline(self):
        trace = _trace([5, 4, 5, 4, 5, 4])
        assert stability_margin(trace) < 0.5
        assert not is_borderline(trace)

    def test_decisively_unstable_is_not_borderline(self):
        trace = _trace([100, 200, 300, 400, 500, 600])
        assert stability_margin(trace) > 2.0
        assert not is_borderline(trace)

    def test_marginal_growth_is_borderline(self):
        # Slope ~ 6/epoch vs threshold 5 (tolerance 0.05 * 100 arrivals),
        # final backlog just past the magnitude gate of 50.
        trace = _trace([60, 66, 72, 78, 84, 90])
        assert is_borderline(trace)

    def test_diverged_is_not_borderline(self):
        trace = _trace([1, 1, 1], diverged=True)
        assert stability_margin(trace) == float("inf")
        assert not is_borderline(trace)

    def test_majority_vote(self):
        stable = _trace([5, 4, 5, 4])
        unstable = _trace([100, 200, 300, 400])
        assert majority_stable([stable, stable, unstable])
        assert not majority_stable([stable, unstable, unstable])
        with pytest.raises(ValueError):
            majority_stable([])



class TestSweepConfirmation:
    def test_borderline_points_get_majority_verdict(self):
        """A borderline base seed is outvoted by two decisive seeds."""
        borderline = _trace([60, 66, 72, 78, 84, 90])  # reads unstable, barely
        stable = _trace([5, 4, 5, 4, 5, 4])
        seen = []

        def run_at(rate, seed_index=0):
            seen.append(seed_index)
            return borderline if seed_index == 0 else stable

        points = stability_sweep([0.01], run_at)
        assert seen == [0, 1, 2]
        assert points[0].stable  # majority overrode the flaky verdict
        assert points[0].confirm_seeds == 3

    def test_decisive_points_are_not_rerun(self):
        seen = []

        def run_at(rate, seed_index=0):
            seen.append(seed_index)
            return _trace([5, 4, 5, 4, 5, 4])

        points = stability_sweep([0.01, 0.02], run_at)
        assert seen == [0, 0]  # one run per rate, no confirmations needed
        assert all(p.confirm_seeds == 1 for p in points)

    def test_confirm_requires_seed_aware_run_at(self):
        def run_at(rate):
            return _trace([5, 4, 5, 4])

        with pytest.raises(TypeError, match="seed_index"):
            stability_sweep([0.01], run_at)

    def test_confirm_rejects_misnamed_second_parameter(self):
        """A second positional slot is not enough: binding the seed to an
        unrelated parameter (a closure default, a tolerance) must fail
        loudly instead of silently corrupting every run."""

        def run_at(rate, tolerance=0.05):
            return _trace([5, 4, 5, 4])

        with pytest.raises(TypeError, match="seed_index"):
            stability_sweep([0.01], run_at)

    def test_confirm_accepts_kwargs_run_at(self):
        def run_at(rate, **kwargs):
            return _trace([5, 4, 5, 4])

        points = stability_sweep([0.01], run_at)
        assert points[0].stable


class TestPatchScheduleWithRateTable:
    """patch_schedule(table=...): demand-matching in packets, not memberships."""

    def table(self, model):
        from repro.phy.radio import RateTable

        return RateTable.geometric(model.radio.beta)

    def test_degenerate_table_patches_identically(self, mesh):
        from repro.phy.radio import RateTable

        links, model = mesh.links, mesh.network.model
        table = RateTable.degenerate(model.radio.beta)
        cached = greedy_physical(links, model)
        rng = np.random.default_rng(11)
        new_links = replace(links, demand=rng.integers(0, 6, size=links.n_links))

        bare = patch_schedule(cached, new_links, model)
        rated = patch_schedule(cached, new_links, model, table=table)
        assert bare is not None and rated is not None
        assert [s.links for s in bare.slots] == [s.links for s in rated.slots]

    def test_a_shared_memo_patches_as_a_fresh_one(self, mesh):
        """``sinrs=`` (how ``ScheduleCache`` hands in the run's memo) only
        changes where SINRs are read from: one memo reused across patches
        gives each patch the schedule a memo of its own gives."""
        from repro.phy.interference import SlotSinrMemo

        links, model = mesh.links, mesh.network.model
        table = self.table(model)
        cached = greedy_physical(links, model)
        memo = SlotSinrMemo(model, links.heads, links.tails)
        rng = np.random.default_rng(17)
        for _ in range(3):
            new_links = replace(links, demand=rng.integers(0, 6, size=links.n_links))
            shared = patch_schedule(cached, new_links, model, table=table, sinrs=memo)
            fresh = patch_schedule(cached, new_links, model, table=table)
            assert shared is not None and fresh is not None
            assert [s.links for s in shared.slots] == [s.links for s in fresh.slots]

    def test_packet_capacity_covers_new_demand(self, mesh):

        links, model = mesh.links, mesh.network.model
        table = self.table(model)
        cached = greedy_physical(links, model)
        rng = np.random.default_rng(13)
        new_demand = rng.integers(0, 8, size=links.n_links)
        new_links = replace(links, demand=new_demand)

        patched = patch_schedule(cached, new_links, model, table=table)
        assert patched is not None
        assert not infeasible_slots(patched, model)
        capacity = np.zeros(links.n_links, dtype=np.int64)
        for slot, rates in zip(patched.slots, schedule_rates(patched, model, table)):
            for k, rate in zip(slot.links, rates):
                capacity[k] += rate
        assert (capacity >= new_demand).all()
        # Emptied links keep no memberships (trim still exact in packets).
        for slot in patched.slots:
            assert all(new_demand[k] > 0 for k in slot.links)

    def test_table_patch_max_length_fallback(self, mesh):
        links, model = mesh.links, mesh.network.model
        cached = greedy_physical(links, model)
        grown = replace(links, demand=links.demand * 6)
        assert (
            patch_schedule(cached, grown, model, max_length=2, table=self.table(model))
            is None
        )

    def test_grants_come_from_the_admission_pass_not_whatif_lists(self, monkeypatch):
        """A joining link's rate in each admitting slot comes from the
        arena's admission pass: every slot the patch hands the SINR kernel
        belongs to the cached or the patched schedule, none is a member
        list with the joining link appended.  On this 6x6 mesh, one packet
        per link, link 27 fits several slots of the cached schedule and is
        granted two packets in the first, so a deficit of two takes that
        slot alone; reading what-if rates for the first ``deficit``
        admitting slots handed the kernel the second one too."""
        from repro.phy.interference import PhysicalInterferenceModel
        from repro.scheduling.feasibility import SlotArena

        grid = grid_scenario(1000.0, rep=0, rows=6, cols=6, n_gateways=2)
        links, model = grid.links, grid.network.model
        table = self.table(model)
        k = 27
        without = np.ones(links.n_links, dtype=np.int64)
        without[k] = 0
        cached = greedy_physical(replace(links, demand=without), model)
        arena = SlotArena(model)
        for slot in cached.slots:
            first, *rest = slot.links
            j = open_slot(arena, int(links.heads[first]), int(links.tails[first]))
            for m in rest:
                arena.add(j, int(links.heads[m]), int(links.tails[m]))
        assert int(arena.can_add_all(int(links.heads[k]), int(links.tails[k])).sum()) > 2

        handed = []
        flat = PhysicalInterferenceModel._slot_sinrs_flat

        def recording(self, heads, tails, slots):
            handed.extend(tuple(slot) for slot in slots)
            return flat(self, heads, tails, slots)

        monkeypatch.setattr(PhysicalInterferenceModel, "_slot_sinrs_flat", recording)
        with_two = without.copy()
        with_two[k] = 2
        patched = patch_schedule(cached, replace(links, demand=with_two), model, table=table)
        assert patched is not None
        schedules = {tuple(s.links) for s in cached.slots + patched.slots}
        assert handed and set(handed) <= schedules
        assert sum(k in slot.links for slot in patched.slots) == 1
