"""Observability is passive: differential proofs across every engine.

The cardinal rule of ``repro.obs`` (DESIGN.md §11): instrumentation never
changes a run.  These tests prove it the same way the repo's other
refactors were locked down (zero-price == unpriced, 1-shard == monolithic):

* **bit-identity** — for every engine (monolithic, incremental-cached,
  sharded, admission-controlled flows) and every reschedule policy it
  runs (the sharded engine runs ``"always"`` only), a run
  with an active spans-level ``Obs`` — JSONL recorder streaming to disk —
  produces ``EpochRecord``s, delay logs, and final backlogs identical to
  the un-instrumented run, epoch for epoch;
* **no silent zeros** — with the thread-CPU clock unavailable the trace
  timing fields are ``None`` and tables render ``~``, never a fake 0.0;
* **overhead guard** — the null-recorder path stays under 5% thread-CPU
  on a reference E7-style run.
"""

import gc
import time

import numpy as np
import pytest

from repro.analysis.tables import TextTable
from repro.experiments.common import grid_scenario
from repro.obs import Obs, ObsConfig, validate_run_file
from repro.obs import spans as obs_spans
from repro.traffic import (
    DEFAULT_GUARD_FACTOR,
    EpochConfig,
    FlowConfig,
    FlowWorkload,
    PoissonArrivals,
    RESCHEDULE_POLICIES,
    centralized_scheduler,
    make_controller,
    plan_for_network,
    run_epochs,
    run_epochs_sharded,
    summarize_trace,
)
from repro.util.rng import spawn


@pytest.fixture(scope="module")
def mesh():
    return grid_scenario(1000.0, rep=0, rows=6, cols=6, n_gateways=3)


def _config(policy="always", n_epochs=4):
    return EpochConfig(
        epoch_slots=120,
        n_epochs=n_epochs,
        divergence_factor=4.0,
        reschedule_policy=policy,
    )


def _generator(mesh, rate=0.012):
    return PoissonArrivals(
        mesh.network.n_nodes, rate, gateways=mesh.gateways, seed=11
    )


def _workload(mesh):
    return FlowWorkload(
        mesh.links,
        FlowConfig.for_offered_rate(0.015, mesh.links.n_links, 120, mean_size=20),
        controller=make_controller("knee-tracker"),
        seed=spawn(5, "obs-wl"),
    )


def _spans_obs(tmp_path, name):
    return Obs.create(
        ObsConfig(level="spans", jsonl_path=str(tmp_path / f"{name}.jsonl"), run_name=name)
    )


def _assert_identical(base, instrumented):
    assert instrumented.records == base.records  # every EpochRecord field
    assert instrumented.diverged == base.diverged
    assert np.array_equal(
        instrumented.queues.delay_array(), base.queues.delay_array()
    )
    assert np.array_equal(instrumented.queues.backlog, base.queues.backlog)


@pytest.mark.parametrize("policy", RESCHEDULE_POLICIES)
class TestBitIdentityAllEnginesAllPolicies:
    def test_monolithic_and_incremental(self, mesh, policy, tmp_path):
        """run_epochs (policy != always exercises the ScheduleCache path)."""
        model = mesh.network.model
        config = _config(policy)

        def run(obs):
            return run_epochs(
                mesh.links,
                _generator(mesh),
                centralized_scheduler(model, overhead_seconds=0.3),
                config,
                model=model,
                obs=obs,
            )

        base = run(None)
        obs = _spans_obs(tmp_path, f"mono-{policy}")
        _assert_identical(base, run(obs))
        assert validate_run_file(obs.export()) == []

    def test_admission_flows(self, mesh, policy, tmp_path):
        model = mesh.network.model
        config = _config(policy)

        def run(obs):
            workload = _workload(mesh)
            trace = run_epochs(
                mesh.links,
                workload,
                centralized_scheduler(model, overhead_seconds=0.3),
                config,
                model=model,
                on_epoch=workload.observe,
                obs=obs,
            )
            return trace, workload

        base, base_wl = run(None)
        obs = _spans_obs(tmp_path, f"flows-{policy}")
        instrumented, inst_wl = run(obs)
        _assert_identical(base, instrumented)
        assert inst_wl.blocking_probability == base_wl.blocking_probability
        assert inst_wl.sessions_offered == base_wl.sessions_offered
        assert inst_wl.sessions_blocked == base_wl.sessions_blocked
        assert validate_run_file(obs.export()) == []


@pytest.mark.parametrize("guard", [DEFAULT_GUARD_FACTOR, 0.0],
                         ids=["guarded", "unguarded"])
def test_sharded_bit_identity(mesh, tmp_path, guard):
    model = mesh.network.model
    plan = plan_for_network(
        mesh.links, mesh.network, n_shards=4, interference_radius_m=80.0,
        guard_factor=guard,
    )

    def factory(shard, shard_model):
        return centralized_scheduler(shard_model, overhead_seconds=0.3)

    def run(obs):
        return run_epochs_sharded(
            plan,
            _generator(mesh),
            factory,
            model,
            _config(),
            obs=obs,
        )

    base = run(None)
    if guard == 0.0:
        # Unguarded, the repair pass has cross-shard violations to serialize.
        assert any(r.reconciled for r in base.records)
    obs = _spans_obs(tmp_path, f"sharded-{guard:g}")
    _assert_identical(base, run(obs))
    assert validate_run_file(obs.export()) == []


class TestNoSilentZeros:
    def test_trace_timing_none_without_cpu_clock(self, mesh, monkeypatch):
        monkeypatch.setattr(obs_spans, "CPU_CLOCK", None)
        model = mesh.network.model
        trace = run_epochs(
            mesh.links,
            _generator(mesh),
            centralized_scheduler(model, overhead_seconds=0.3),
            _config(),
            model=model,
        )
        assert trace.scheduling_seconds is None
        assert trace.critical_path_seconds is None

    def test_sharded_trace_timing_none_without_cpu_clock(self, mesh, monkeypatch):
        monkeypatch.setattr(obs_spans, "CPU_CLOCK", None)
        plan = plan_for_network(
            mesh.links, mesh.network, n_shards=2, interference_radius_m=80.0
        )

        def factory(shard, shard_model):
            return centralized_scheduler(shard_model, overhead_seconds=0.3)

        trace = run_epochs_sharded(
            plan, _generator(mesh), factory, mesh.network.model, _config()
        )
        assert trace.scheduling_seconds is None
        assert trace.critical_path_seconds is None

    def test_timing_measured_with_cpu_clock(self, mesh):
        model = mesh.network.model
        trace = run_epochs(
            mesh.links,
            _generator(mesh),
            centralized_scheduler(model, overhead_seconds=0.3),
            _config(),
            model=model,
        )
        assert trace.scheduling_seconds is not None
        assert trace.scheduling_seconds > 0.0

    def test_tables_render_none_as_redacted(self):
        table = TextTable(["metric", "value"])
        table.add_row("compute (s)", None)
        assert "~" in table.render()


class TestExperimentObsKnobs:
    """Satellite: the profile/runner obs knobs drive real emissions."""

    def _tiny_traffic_profile(self, **overrides):
        from dataclasses import replace

        from repro.experiments.common import ExperimentProfile

        base = ExperimentProfile(
            name="tiny",
            traffic_lambdas=(0.004,),
            traffic_epochs=2,
            traffic_epoch_slots=80,
            seed=77,
        )
        return replace(base, **overrides)

    def test_profile_knobs_emit_valid_run_file(self, tmp_path):
        from repro.experiments.heavy_traffic import heavy_traffic_experiment
        from repro.obs.summarize import summarize_run

        profile = self._tiny_traffic_profile(
            obs_level="spans", obs_jsonl=str(tmp_path)
        )
        heavy_traffic_experiment(profile)
        run_file = tmp_path / "heavy-traffic.jsonl"
        assert run_file.exists()
        assert validate_run_file(run_file) == []
        text = summarize_run(run_file)
        assert "Per-phase time breakdown" in text
        assert "epoch.schedule" in text

    def test_runner_obs_flags(self, tmp_path, monkeypatch, capsys):
        """--obs-jsonl through the CLI implies spans and lands a file."""
        from repro.experiments import runner

        monkeypatch.setattr(runner, "QUICK", self._tiny_traffic_profile())
        assert (
            runner.main(
                [
                    "heavy-traffic",
                    "--profile",
                    "quick",
                    "--obs-jsonl",
                    str(tmp_path),
                ]
            )
            == 0
        )
        run_file = tmp_path / "heavy-traffic.jsonl"
        assert run_file.exists()
        assert validate_run_file(run_file) == []
        assert "E7" in capsys.readouterr().out

    def test_obs_level_off_emits_nothing(self, tmp_path):
        from repro.experiments.heavy_traffic import heavy_traffic_experiment

        profile = self._tiny_traffic_profile(obs_jsonl=str(tmp_path))
        heavy_traffic_experiment(profile)  # obs_level stays "off"
        assert list(tmp_path.glob("*.jsonl")) == []


class TestOverheadGuard:
    def test_null_recorder_under_two_percent(self):
        """Satellite guard: spans-level Obs with the NullRecorder must not
        cost more than 5% on a reference E7 run — the FDD distributed
        protocol on the paper's 8x8 planned grid, where an epoch costs
        real scheduling compute (the bound is meaningless on a
        microsecond toy run, where end-of-run bookings dominate).
        Measured in thread-CPU time: instrumentation overhead *is* CPU
        work, and the CPU clock is blind to the scheduler preemption and
        hypervisor steal that make shared-box wall-clock flap by more
        than the bound (falls back to wall where no CPU clock exists)."""
        from repro.core.fdd import fdd_on_network
        from repro.experiments.common import PAPER_PROTOCOL
        from repro.traffic import distributed_scheduler

        ref = grid_scenario(1000.0, rep=0, rows=8, cols=8, n_gateways=4)
        config = _config("always", n_epochs=4)

        def run(obs):
            return run_epochs(
                ref.links,
                _generator(ref),
                distributed_scheduler(
                    ref.network,
                    fdd_on_network,
                    config=PAPER_PROTOCOL,
                    seed=spawn(7, "fdd"),
                ),
                config,
                model=ref.network.model,
                obs=obs,
            )

        def timed(obs_factory):
            # Level the heap and keep collector pauses out of the timed
            # region: late in the suite the old generation is large, and a
            # cycle triggered mid-sample lands on whichever variant happens
            # to allocate past the threshold first — pure noise relative to
            # the bound under test.
            clock = getattr(time, "thread_time", time.perf_counter)
            gc.collect()
            gc.disable()
            try:
                start = clock()
                run(obs_factory())
                return clock() - start
            finally:
                gc.enable()

        # Interleaved pairs and a paired statistic: each round times both
        # variants back to back and keeps their ratio; the verdict is the
        # median ratio.  This host flips between a fast and a ~1.6x slower
        # mode mid-test, and separate minima of the two variants then
        # compare samples from different modes whenever one variant drew
        # no fast-mode sample; a flip corrupts only the pair it falls in,
        # and the median shrugs off such pairs.  The within-round order
        # alternates, so drift inside a pair favours neither variant.
        run(None)  # warm caches (imports, numpy, memoized topology)
        ratios = []
        for i in range(40):
            if i % 2:
                off = timed(lambda: None)
                on = timed(lambda: Obs.create(ObsConfig(level="spans")))
            else:
                on = timed(lambda: Obs.create(ObsConfig(level="spans")))
                off = timed(lambda: None)
            ratios.append(on / off)
            # A real regression (a recorder doing work per span) inflates
            # every pair and never passes, however many rounds run; noise
            # settles the median, so stop once eight pairs show the bound.
            if len(ratios) >= 8 and np.median(ratios) <= 1.05:
                break
        # 5%, not lower: discriminating finer differences needs timer
        # stability a shared single-CPU box does not offer (single ratios
        # flap across ±3%), and the regression class this guards against —
        # a recorder doing real work per span — costs tens of percent.
        overhead = float(np.median(ratios)) - 1
        assert overhead <= 0.05, f"null-recorder overhead {overhead:.1%} ({len(ratios)} pairs)"
