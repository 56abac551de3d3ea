"""Unit tests for the traffic workload generators: rates, seeds, gateways."""

import numpy as np
import pytest

from repro.routing import planned_gateways
from repro.traffic import (
    ParetoOnOff,
    PoissonArrivals,
)
from repro.traffic.generators import MEAN_OFF_SLOTS, MEAN_ON_SLOTS, PARETO_ALPHA
from tests.conftest import ConstantBitRate

N = 16
GWS = planned_gateways(4, 4, 2)


def total_over(gen, epochs, n_slots):
    return sum(int(gen.arrivals(e, n_slots).sum()) for e in range(epochs))


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [ConstantBitRate, PoissonArrivals, ParetoOnOff],
        ids=lambda f: f.__name__,
    )
    def test_same_seed_same_arrivals(self, factory):
        a = factory(N, 0.05, gateways=GWS, seed=123)
        b = factory(N, 0.05, gateways=GWS, seed=123)
        for epoch in range(6):
            np.testing.assert_array_equal(
                a.arrivals(epoch, 50), b.arrivals(epoch, 50)
            )

    @pytest.mark.parametrize(
        "factory", [ConstantBitRate, PoissonArrivals], ids=lambda f: f.__name__
    )
    def test_epoch_regenerable_in_isolation(self, factory):
        """Stateless generators: any epoch is a pure function of (seed, epoch)."""
        gen = factory(N, 0.05, gateways=GWS, seed=9)
        history = [gen.arrivals(e, 50) for e in range(6)]
        fresh = factory(N, 0.05, gateways=GWS, seed=9)
        np.testing.assert_array_equal(fresh.arrivals(5, 50), history[5])
        np.testing.assert_array_equal(fresh.arrivals(2, 50), history[2])

    def test_different_seeds_differ(self):
        a = PoissonArrivals(N, 0.5, gateways=GWS, seed=1).arrivals(0, 100)
        b = PoissonArrivals(N, 0.5, gateways=GWS, seed=2).arrivals(0, 100)
        assert not np.array_equal(a, b)

    def test_generator_seed_is_frozen(self):
        """A live Generator seed is folded once, not redrawn per call."""
        rng = np.random.default_rng(7)
        gen = PoissonArrivals(N, 0.5, gateways=GWS, seed=rng)
        np.testing.assert_array_equal(gen.arrivals(3, 50), gen.arrivals(3, 50))


class TestRates:
    def test_cbr_exact_long_run(self):
        gen = ConstantBitRate(N, 0.3, gateways=GWS, seed=0)
        slots = 40 * 25
        expected = sum(int(np.floor(0.3 * slots)) for _ in range(N - GWS.size))
        assert total_over(gen, 40, 25) == expected

    def test_cbr_fractional_rate_accumulates(self):
        gen = ConstantBitRate(4, 0.25, seed=0)
        counts = [int(gen.arrivals(e, 1).sum()) for e in range(8)]
        assert sum(counts) == 8  # 4 nodes x 0.25 pkt/slot x 8 slots
        assert max(counts) == 4 and min(counts) == 0  # bunched every 4th slot

    def test_poisson_mean_rate(self):
        gen = PoissonArrivals(N, 0.2, gateways=GWS, seed=5)
        measured = total_over(gen, 60, 50) / ((N - GWS.size) * 60 * 50)
        assert measured == pytest.approx(0.2, rel=0.1)

    def test_pareto_long_run_mean_rate(self):
        gen = ParetoOnOff(N, 0.05, gateways=GWS, seed=5)
        measured = total_over(gen, 80, 100) / ((N - GWS.size) * 80 * 100)
        assert measured == pytest.approx(0.05, rel=0.35)  # heavy tail: loose


class TestGatewaysAndValidation:
    @pytest.mark.parametrize(
        "factory",
        [ConstantBitRate, PoissonArrivals, ParetoOnOff],
        ids=lambda f: f.__name__,
    )
    def test_gateways_never_generate(self, factory):
        gen = factory(N, 0.8, gateways=GWS, seed=11)
        for epoch in range(4):
            assert np.all(gen.arrivals(epoch, 50)[GWS] == 0)

    @pytest.mark.parametrize(
        "factory",
        [ConstantBitRate, PoissonArrivals, ParetoOnOff],
        ids=lambda f: f.__name__,
    )
    def test_arrivals_are_one_integer_count_per_node(self, factory):
        counts = factory(N, 0.3, gateways=GWS, seed=4).arrivals(0, 40)
        assert counts.shape == (N,)
        assert counts.dtype == np.int64
        assert (counts >= 0).all()

    def test_rates_are_the_sources_own(self):
        rates = np.linspace(0.0, 0.3, N)
        gen = PoissonArrivals(N, rates, gateways=GWS, seed=0)
        sources = np.setdiff1d(np.arange(N), GWS)
        np.testing.assert_array_equal(gen.rates[sources], rates[sources])
        assert (gen.rates[GWS] == 0).all()

    def test_all_gateway_network_has_zero_mean_rate(self):
        gen = ConstantBitRate(4, 0.5, gateways=np.arange(4), seed=0)
        assert int(gen.arrivals(0, 100).sum()) == 0

    def test_per_node_rates_are_honoured(self):
        rates = np.array([0.0, 0.1, 0.5, 1.0])
        gen = ConstantBitRate(4, rates, seed=0)
        np.testing.assert_array_equal(gen.arrivals(0, 20), [0, 2, 10, 20])

    def test_non_positive_node_count_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0, 0.1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(N, -0.1)

    def test_pareto_requires_sequential_epochs(self):
        gen = ParetoOnOff(N, 0.05, seed=1)
        gen.arrivals(0, 20)
        with pytest.raises(ValueError, match="expected epoch 1"):
            gen.arrivals(5, 20)

    def test_pareto_reset_replays(self):
        gen = ParetoOnOff(N, 0.05, seed=1)
        first = [gen.arrivals(e, 30).copy() for e in range(4)]
        gen.reset()
        for epoch, expected in enumerate(first):
            np.testing.assert_array_equal(gen.arrivals(epoch, 30), expected)

    def test_pareto_sojourns_have_finite_positive_means(self):
        # A shape above 1 keeps the mean finite; every draw sits at or
        # above the Pareto minimum of its phase's mean.
        assert PARETO_ALPHA > 1.0 and MEAN_ON_SLOTS > 0.0 and MEAN_OFF_SLOTS > 0.0
        gen = ParetoOnOff(N, 0.1, seed=2)
        floor = MEAN_OFF_SLOTS * (PARETO_ALPHA - 1.0) / PARETO_ALPHA
        assert not gen._on.any() and (gen._remaining >= floor).all()

    def test_pareto_peak_rate_is_mean_over_duty_cycle(self):
        gen = ParetoOnOff(N, 0.05, seed=1)
        assert gen.duty_cycle == MEAN_ON_SLOTS / (MEAN_ON_SLOTS + MEAN_OFF_SLOTS) == 0.25
        np.testing.assert_allclose(gen.peak_rates, 0.2)


class TestZeroRateEdges:
    """Zero-rate processes must be silent, not crash."""

    @pytest.mark.parametrize(
        "factory",
        [ConstantBitRate, PoissonArrivals, ParetoOnOff],
        ids=lambda f: f.__name__,
    )
    def test_zero_rate_is_silent(self, factory):
        gen = factory(N, 0.0, gateways=GWS, seed=3)
        for epoch in range(4):
            assert int(gen.arrivals(epoch, 50).sum()) == 0

    def test_zero_rate_pareto_terminates_and_stays_silent(self):
        # The renewal loop must still walk sojourns to the epoch boundary
        # (peak_rates are all zero) without spinning or emitting.
        gen = ParetoOnOff(N, 0.0, gateways=GWS, seed=3)
        for epoch in range(5):
            assert int(gen.arrivals(epoch, 200).sum()) == 0
