"""Analysis helpers (stats, bounds, tables) and util (rng, validation)."""

import time

import numpy as np
import pytest

from repro.analysis.bounds import (
    APPROXIMATION_EXPONENT,
    approximation_bound,
    connectivity_range_uniform,
    fdd_step_complexity_bound,
    grid_id_bound,
    uniform_id_bound,
)
from repro.analysis.stats import _t_quantile, mean_ci
from repro.analysis.tables import TextTable
from repro.util.rng import ensure_rng, spawn
from repro.util.validation import (
    check_integer_in_range,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestStats:
    def test_single_sample_zero_width(self):
        ci = mean_ci([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0

    def test_constant_samples_zero_width(self):
        ci = mean_ci([2.0, 2.0, 2.0])
        assert ci.half_width == pytest.approx(0.0)

    def test_interval_contains_mean_of_population(self):
        rng = np.random.default_rng(0)
        hits = 0
        for _ in range(200):
            samples = rng.normal(10.0, 2.0, size=12)
            ci = mean_ci(samples)
            hits += abs(ci.mean - 10.0) <= ci.half_width
        assert hits > 170  # ~95% coverage, allow sampling slack

    def test_t_quantile_equals_scipy(self):
        """The closed-form quantile against scipy, the test's oracle only."""
        from scipy import stats

        for df in [*range(1, 1001), 10**4, 10**5]:
            assert _t_quantile(df) == pytest.approx(
                stats.t.ppf(0.975, df), rel=1e-12, abs=0.0
            ), df

    def test_half_width_is_t_quantile_times_standard_error(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        ci = mean_ci(samples)
        sem = np.std(samples, ddof=1) / 2.0
        # t_{0.975} at df = 3: scipy.stats.t.ppf(0.975, 3).
        assert ci.half_width == pytest.approx(3.1824463052837078 * sem, rel=1e-12, abs=0.0)
        assert ci.n == 4

    def test_hundred_thousand_samples_under_50_ms(self):
        samples = np.random.default_rng(0).normal(size=10**5)
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            mean_ci(samples)
            best = min(best, time.process_time() - start)
        assert best < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])

    def test_str_format(self):
        assert "±" in str(mean_ci([1.0, 2.0]))


class TestBounds:
    def test_grid_bound_tight_for_aligned_square(self):
        # n-node square grid, step 1: diam = sqrt(2)*(sqrt(n)-1).
        for side in (4, 8, 12):
            diam = np.sqrt(2.0) * (side - 1)
            assert grid_id_bound(diam, 1.0) == pytest.approx(2.0 * (side - 1))

    def test_uniform_bound_scaling(self):
        # Theta(sqrt(n / log n)): quadrupling n scales by 2*sqrt(ln n/ln 4n).
        n = 10_000
        expected = 2.0 * np.sqrt(np.log(n) / np.log(4 * n))
        ratio = uniform_id_bound(4 * n) / uniform_id_bound(n)
        assert ratio == pytest.approx(expected, rel=1e-6)

    def test_connectivity_range_decreases(self):
        assert connectivity_range_uniform(1000) < connectivity_range_uniform(100)

    def test_approximation_bound_sublinear(self):
        for n in (100, 1000, 10_000):
            assert approximation_bound(n) < n

    def test_approximation_exponent_exceeds_two(self):
        # Theorem 4 needs psi(alpha) + eps > 2; at or below it the bound
        # stops being sublinear.
        assert APPROXIMATION_EXPONENT > 2.0

    def test_complexity_bound_formula(self):
        assert fdd_step_complexity_bound(10, 5.0, 64) == pytest.approx(
            10 * 5.0 * 64 * np.log(64)
        )


class TestTables:
    def test_render_contains_all_cells(self):
        table = TextTable(["a", "b"], title="T")
        table.add_row(1, 2.5)
        table.add_row("x", "y")
        text = table.render()
        assert "T" in text and "a" in text and "2.50" in text and "y" in text

    def test_row_arity_checked(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_redacted_masks_volatile_columns_only(self):
        table = TextTable(["k", "wall (s)"], title="T")
        table.add_row("a", 1.23)
        table.add_row("b", 4.56)
        masked = table.redacted(("wall (s)",))
        text = masked.render()
        assert "1.23" not in text and "4.56" not in text
        assert "a" in text and "b" in text and "~" in text
        # The original is untouched, and rendering stays deterministic.
        assert "1.23" in table.render()
        assert masked.render() == table.redacted(("wall (s)",)).render()

    def test_redacted_rejects_unknown_columns(self):
        table = TextTable(["k", "v"])
        with pytest.raises(ValueError, match="unknown columns"):
            table.redacted(("wall (s)",))


class TestRng:
    def test_spawn_deterministic(self):
        a = spawn(42, "x", 1).integers(0, 1_000_000)
        b = spawn(42, "x", 1).integers(0, 1_000_000)
        assert a == b

    def test_spawn_distinct_keys_distinct_streams(self):
        a = spawn(42, "x").integers(0, 2**40)
        b = spawn(42, "y").integers(0, 2**40)
        assert a != b

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_rejects_junk(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ValueError):
            check_positive("x", 0)
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))
        with pytest.raises(TypeError):
            check_positive("x", "1")

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.2)

    def test_check_integer_in_range(self):
        assert check_integer_in_range("n", 5, minimum=1, maximum=10) == 5
        with pytest.raises(ValueError):
            check_integer_in_range("n", 0, minimum=1)
        with pytest.raises(ValueError):
            check_integer_in_range("n", 11, maximum=10)
        with pytest.raises(TypeError):
            check_integer_in_range("n", 1.5)
        with pytest.raises(TypeError):
            check_integer_in_range("n", True)
