"""Smoke-level integration tests of every experiment harness and the CLI.

Each harness must run end-to-end on a tiny profile and produce the expected
table shape, with a few qualitative assertions on the science (FDD equals
the centralized baseline, error curves trend the right way, etc.).
"""

import pytest

from repro.experiments import (
    clock_skew_experiment,
    exec_time_experiment,
    fdd_equivalence_experiment,
    grid_schedule_experiment,
    id_scaling_experiment,
    impossibility_demo,
    mote_error_experiment,
    mote_rssi_experiment,
    complexity_experiment,
    orderings_experiment,
    seal_rule_experiment,
    truncated_k_experiment,
    uniform_schedule_experiment,
)
from repro.core.events import StepTally
from repro.experiments.common import ExperimentProfile
from repro.experiments.exec_time import collect_tallies, skew_tolerance

TINY = ExperimentProfile(
    name="tiny",
    densities=(1000.0, 25000.0),
    repetitions=1,
    pdd_probabilities=(0.2,),
    mote_screams=60,
    mote_smbytes=(6, 12, 24),
    exec_time_sweep=(5, 20),
    skew_sweep_s=(1e-6, 1e-3),
    id_scaling_sizes=(16, 36),
    seed=77,
)


@pytest.fixture(scope="module")
def tallies():
    return collect_tallies(TINY, density=2500.0)


def _values(table, column):
    idx = table.columns.index(column)
    return [row[idx] for row in table._rows]


class TestScheduleQuality:
    def test_grid_table_shape_and_equivalence(self):
        table = grid_schedule_experiment(TINY)
        assert table.n_rows == len(TINY.densities)
        # FDD column equals the centralized column (Theorem 4).
        assert _values(table, "FDD") == _values(table, "Centralized")

    def test_uniform_table_runs(self):
        table = uniform_schedule_experiment(TINY)
        assert table.n_rows == len(TINY.densities)


class TestExecTime:
    def test_exec_time_monotone_in_both_sweeps(self, tallies):
        table = exec_time_experiment(TINY, tallies)
        for column in table.columns[1:]:
            means = [float(v.split(" ±")[0]) for v in _values(table, column)]
            assert means == sorted(means)

    def test_fdd_slower_than_pdd(self, tallies):
        table = exec_time_experiment(TINY, tallies)
        fdd = [float(v.split(" ±")[0]) for v in _values(table, "FDD vs SMBytes (s)")]
        pdd = [float(v.split(" ±")[0]) for v in _values(table, "PDD vs SMBytes (s)")]
        assert all(f > p for f, p in zip(fdd, pdd))

    def test_skew_curve_flat_then_linear(self, tallies):
        table = clock_skew_experiment(TINY, tallies)
        fdd = [float(v.split(" ±")[0]) for v in _values(table, "FDD (s)")]
        # At 1 ms skew the guard dominates: time must blow up vs 1 µs.
        assert fdd[-1] > 10 * fdd[0]

    def test_skew_tolerance_ordering(self, tallies):
        """PDD tolerates roughly an order of magnitude more skew than FDD."""
        fdd_tol = skew_tolerance(tallies.fdd[0])
        pdd_tol = skew_tolerance(tallies.pdd[0])
        assert pdd_tol > 2 * fdd_tol > 0

    def test_skew_tolerance_is_zero_for_a_run_over_budget_without_skew(self):
        # Ten million SCREAM slots take far more than 5% of a minute even at
        # zero skew: no skew is tolerable, and the tolerance is not negative.
        assert skew_tolerance(StepTally(scream_slots=10_000_000)) == 0.0


class TestMote:
    def test_error_table_trend(self):
        table = mote_error_experiment(TINY)
        errors = [float(v) for v in _values(table, "interval error (%)")]
        assert errors[0] >= errors[-1]
        assert errors[-1] < 5.0  # 24 bytes detects reliably

    def test_rssi_table_episode_count(self):
        table = mote_rssi_experiment(TINY)
        cells = dict(zip(_values(table, "quantity"), _values(table, "value")))
        assert cells["above-threshold episodes"] == cells["expected episodes"]


class TestTheory:
    def test_id_scaling_grid_matches_bound(self):
        table = id_scaling_experiment(TINY)
        measured = [float(v) for v in _values(table, "grid ID")]
        bounds = [float(v) for v in _values(table, "grid bound (Thm 2)")]
        for m, b in zip(measured, bounds):
            assert m <= b + 1e-9
            assert m == pytest.approx(b, rel=0.01)  # tight per the paper

    def test_fdd_equivalence_all_identical(self):
        table = fdd_equivalence_experiment(TINY)
        for cell in _values(table, "identical schedules"):
            done, total = cell.split("/")
            assert done == total

    def test_impossibility_flips(self):
        table = impossibility_demo()
        cells = dict(zip(_values(table, "quantity"), _values(table, "value")))
        assert cells["feasibility flips with far block"] == "yes"
        assert float(cells["hop distance l -> far block"]) > 8

    def test_complexity_ratio_bounded(self):
        table = complexity_experiment(TINY)
        ratios = [float(v) for v in _values(table, "ratio")]
        assert all(r < 10.0 for r in ratios)


class TestAblations:
    def test_truncated_k_recovers_at_full_k(self):
        table = truncated_k_experiment(TINY)
        last = table._rows[-1]  # K = ID + 1: must be clean
        assert last[3] == "0" and last[4] == "0" and last[5] == "0"

    def test_orderings_table_runs(self):
        table = orderings_experiment(TINY)
        assert table.n_rows == 2

    def test_seal_rule_table_runs(self):
        table = seal_rule_experiment(TINY)
        assert table.n_rows == len(TINY.pdd_probabilities)


class TestCli:
    def test_runner_writes_output_files(self, tmp_path, capsys):
        from repro.experiments.runner import main

        code = main(
            ["impossibility", "--profile", "quick", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "impossibility.txt").exists()
        assert "Theorem 1" in capsys.readouterr().out

    def test_runner_rejects_unknown_experiment(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["no-such-thing"])

    def test_obs_flag_overrides_the_level_the_jsonl_run_implies(self, tmp_path, capsys):
        import json

        from repro.experiments.runner import main

        args = ["controlplane", "--profile", "quick", "--obs-jsonl", str(tmp_path)]
        assert main(args + ["--obs", "metrics"]) == 0
        rows = (tmp_path / "controlplane.jsonl").read_text().splitlines()
        types = {json.loads(row)["type"] for row in rows}
        # --obs-jsonl alone would record spans; --obs metrics records none.
        assert "metric" in types and "span" not in types


class TestCliSeed:
    def test_seed_flag_changes_stochastic_results(self, capsys):
        from repro.experiments.runner import main

        main(["mote-error", "--profile", "quick", "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["mote-error", "--profile", "quick", "--seed", "1"])
        out_same = capsys.readouterr().out
        main(["mote-error", "--profile", "quick", "--seed", "2"])
        out2 = capsys.readouterr().out

        def rows(text):
            return [
                line.strip()
                for line in text.splitlines()
                if line.strip() and line.strip()[0].isdigit()
            ]

        assert rows(out1) == rows(out_same)  # same seed -> same table
        assert rows(out1) != rows(out2)  # different seed -> different table


class TestApproximationAndSkewAblation:
    def test_approximation_experiment_shape(self):
        from repro.experiments.approximation import approximation_experiment

        table = approximation_experiment(TINY)
        assert table.n_rows == 2
        for row in table._rows:
            measured = float(row[2].split(" ±")[0])
            worst = float(row[3])
            bound = float(row[4])
            assert 1.0 <= measured <= worst <= bound

    def test_uncompensated_skew_onset(self):
        from repro.experiments.ablations import uncompensated_skew_experiment

        table = uncompensated_skew_experiment(TINY)
        # Below the critical skew (first row, factor 0.5): no edge loss.
        assert float(table._rows[0][1]) == 0.0
        # Well past it (last row): substantial loss.
        assert float(table._rows[-1][1]) > 50.0


class TestHeavyTraffic:
    def test_stability_table_shape_and_knee_rows(self):
        from dataclasses import replace

        from repro.experiments.heavy_traffic import heavy_traffic_experiment

        tiny = replace(
            TINY,
            traffic_lambdas=(0.004,),
            traffic_epochs=2,
            traffic_epoch_slots=80,
        )
        table = heavy_traffic_experiment(tiny)
        # 3 schedulers x 1 rate + 3 knee summary rows.
        assert table.n_rows == 6
        knees = {row[0]: row[-1] for row in table._rows if row[1] == "knee"}
        assert set(knees) == {"Serialized", "GreedyPhysical", "FDD"}
        # At a rate this low every scheduler is stable, so every knee is the
        # top of the sweep.
        assert all(value == "0.004" for value in knees.values())

    def test_admission_table_shape_and_sla_columns(self):
        from dataclasses import replace

        from repro.experiments.admission import admission_experiment

        tiny = replace(
            TINY,
            traffic_epoch_slots=80,
            admission_controllers=("none", "static-cap"),
            admission_load_factors=(1.0, 2.0),
            admission_epochs=3,
        )
        table = admission_experiment(tiny)
        # 2 controllers x 2 offered loads.
        assert table.n_rows == 4
        rows = {(r[0], r[1]): r for r in table._rows}
        assert set(rows) == {
            ("none", "1x"),
            ("none", "2x"),
            ("static-cap", "1x"),
            ("static-cap", "2x"),
        }
        # The uncontrolled baseline never blocks; the cap blocks under
        # overload and reports it in the SLA column.
        assert rows[("none", "2x")][4] == "0%"
        assert rows[("static-cap", "2x")][4].endswith("%")
        assert float(rows[("static-cap", "2x")][4].rstrip("%")) > 0

    def test_incremental_table_shape_and_policy_axis(self):
        from dataclasses import replace

        from repro.experiments.heavy_traffic import incremental_experiment

        tiny = replace(
            TINY,
            traffic_lambdas=(0.004,),
            traffic_epochs=3,
            traffic_epoch_slots=80,
        )
        table = incremental_experiment(tiny)
        # 3 policies x 1 rate + 3 knee summary rows.
        assert table.n_rows == 6
        knees = {row[0]: row[-1] for row in table._rows if row[1] == "knee"}
        assert set(knees) == {"always", "drift-threshold", "patch"}
        assert all(value == "0.004" for value in knees.values())
        # The always policy never reports cache hits; caching policies pay
        # no more overhead than always does.
        hits = {row[0]: row[6] for row in table._rows if row[1] != "knee"}
        assert hits["always"] == "0%"
        totals = {row[0]: int(row[4]) for row in table._rows if row[1] != "knee"}
        assert totals["drift-threshold"] <= totals["always"]
        assert totals["patch"] <= totals["always"]
