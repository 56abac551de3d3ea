"""Unit tests for per-link FIFO queues: routing, FIFO order, conservation."""

import numpy as np
import pytest

from repro.scheduling.links import LinkSet
from repro.traffic import LinkQueues
from tests.conftest import serve_slot


def chain_links():
    """A 3-node chain 2 -> 1 -> 0 with node 0 the gateway (two links)."""
    return LinkSet(
        heads=np.array([1, 2]),
        tails=np.array([0, 1]),
        demand=np.array([0, 0]),
        ids=np.array([1, 2]),
    )


class TestRoutingAndArrivals:
    def test_next_link_follows_forest(self):
        queues = LinkQueues(chain_links())
        assert queues.next_link[1] == 0  # link of node 2 relays into node 1's
        assert queues.next_link[0] == -1  # node 1's link delivers to gateway

    def test_arrivals_enter_source_link(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 2, 3]), time=0)
        np.testing.assert_array_equal(queues.backlog, [2, 3])
        assert queues.arrivals_total == 5

    def test_gateway_arrivals_rejected(self):
        queues = LinkQueues(chain_links())
        with pytest.raises(ValueError, match="heads no link"):
            queues.arrive(np.array([1, 0, 0]), time=0)

    def test_negative_arrivals_rejected(self):
        queues = LinkQueues(chain_links())
        with pytest.raises(ValueError):
            queues.arrive(np.array([0, -1, 0]), time=0)


class TestServing:
    def test_single_hop_delivery_and_delay(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 1, 0]), time=0)
        served = serve_slot(queues, np.array([0]), time=0)
        assert served == 1
        assert queues.delivered_total == 1
        assert queues.delays == [1]  # arrived slot 0, delivered slot 0
        queues.check_conservation()

    def test_no_two_hops_in_one_slot(self):
        """Pops happen before pushes: a packet advances at most one hop/slot."""
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 0, 1]), time=0)
        served = serve_slot(queues, np.array([0, 1]), time=0)
        assert served == 1  # only link 1 had backlog
        assert queues.delivered_total == 0
        np.testing.assert_array_equal(queues.backlog, [1, 0])
        served = serve_slot(queues, np.array([0, 1]), time=1)
        assert served == 1 and queues.delivered_total == 1
        assert queues.delays == [2]  # two hops, two slots
        queues.check_conservation()

    def test_empty_links_serve_nothing(self):
        queues = LinkQueues(chain_links())
        assert serve_slot(queues, np.array([0, 1]), time=0) == 0
        assert queues.served_total == 0

    def test_fifo_order_by_queue_arrival(self):
        """Oldest packet in *this* queue leaves first."""
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 1, 0]), time=0)  # birth 0 at link 0
        queues.arrive(np.array([0, 1, 0]), time=5)  # birth 5 at link 0
        serve_slot(queues, np.array([0]), time=10)
        serve_slot(queues, np.array([0]), time=20)
        assert queues.delays == [11, 16]  # births 0 then 5, FIFO

    def test_same_birth_packets_leave_in_fifo_order(self):
        """A batch of same-birth packets is one queue entry per packet: they
        leave one per play, ahead of everything that arrived after them."""
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 5, 0]), time=0)
        queues.arrive(np.array([0, 1, 1]), time=3)
        assert queues.backlog[0] == 6
        for t in range(4, 10):
            assert serve_slot(queues, np.array([0, 1]), time=t) == (2 if t == 4 else 1)
        assert queues.births == [0, 0, 0, 0, 0, 3]  # node 2's packet still queued
        assert queues.delays == [5, 6, 7, 8, 9, 7]
        assert queues.sources == [0] * 6
        np.testing.assert_array_equal(queues.backlog, [1, 0])


class TestConservation:
    def test_random_workload_conserves_packets(self):
        rng = np.random.default_rng(42)
        queues = LinkQueues(chain_links())
        time = 0
        for _ in range(200):
            queues.arrive(
                np.array([0, rng.integers(0, 3), rng.integers(0, 3)]), time
            )
            serve_slot(queues, rng.permutation(2)[: rng.integers(1, 3)], time)
            time += 1
        queues.check_conservation()
        assert (
            queues.arrivals_total
            == queues.delivered_total + queues.total_backlog()
        )
        assert queues.delivered_total > 0
        # The per-link served counters are the spatial breakdown of
        # served_total (regional controllers difference them for exact
        # served attribution).
        assert int(queues.served_by_link.sum()) == queues.served_total
        assert (queues.served_by_link >= 0).all()

    def test_served_by_link_counts_each_transmission(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 0, 2]), 0)  # 2 packets at node 2 (link 1)
        serve_slot(queues, np.array([1]), 0)  # relay one hop
        serve_slot(queues, np.array([0, 1]), 1)  # deliver one, relay the other
        np.testing.assert_array_equal(queues.served_by_link, [1, 2])
        assert queues.served_total == 3

    def test_non_forest_link_set_rejected(self):
        two_headed = LinkSet(
            heads=np.array([1, 1]),
            tails=np.array([0, 2]),
            demand=np.array([0, 0]),
            ids=np.array([1, 2]),
        )
        with pytest.raises(ValueError, match="heads more than one link"):
            LinkQueues(two_headed)


class TestRateServing:
    """serve_slot(rates=...): the multi-rate serving contract."""

    def test_rate_serves_multiple_packets_per_play(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 0, 3]), time=0)
        served = serve_slot(queues, np.array([1]), time=0, rates=np.array([2]))
        assert served == 2
        np.testing.assert_array_equal(queues.backlog, [2, 1])
        assert queues.plays_total == 1

    def test_rate_clamped_to_backlog(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 0, 1]), time=0)
        served = serve_slot(queues, np.array([1]), time=0, rates=np.array([4]))
        assert served == 1
        assert queues.total_backlog() == 1  # relayed onto link 0

    def test_all_ones_rates_match_rateless_serving(self):
        fixed, rated = LinkQueues(chain_links()), LinkQueues(chain_links())
        rng = np.random.default_rng(7)
        for t in range(30):
            arrivals = rng.integers(0, 3, size=3)
            arrivals[0] = 0
            fixed.arrive(arrivals, t)
            rated.arrive(arrivals, t)
            members = rng.permutation(2)[: rng.integers(1, 3)]
            s1 = serve_slot(fixed, members, t)
            s2 = serve_slot(rated, members, t, rates=np.ones(members.size, np.int64))
            assert s1 == s2
        np.testing.assert_array_equal(fixed.backlog, rated.backlog)
        np.testing.assert_array_equal(fixed.delay_array(), rated.delay_array())
        fixed.check_conservation()
        rated.check_conservation()

    def test_zero_rate_member_is_not_a_play(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 1, 1]), time=0)
        served = serve_slot(queues, np.array([0, 1]), time=0, rates=np.array([0, 1]))
        assert served == 1
        assert queues.plays_total == 1

    def test_rate_serving_conserves_packets(self):
        queues = LinkQueues(chain_links())
        rng = np.random.default_rng(11)
        for t in range(50):
            arrivals = rng.integers(0, 4, size=3)
            arrivals[0] = 0
            queues.arrive(arrivals, t)
            members = rng.permutation(2)[: rng.integers(1, 3)]
            rates = rng.integers(0, 4, size=members.size)
            serve_slot(queues, members, t, rates=rates)
        queues.check_conservation()
        assert queues.served_total >= queues.delivered_total

    def test_fifo_order_preserved_under_rates(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 2, 0]), time=0)
        queues.arrive(np.array([0, 2, 0]), time=5)
        serve_slot(queues, np.array([0]), time=10, rates=np.array([3]))
        # Three delivered: both t=0 packets before any t=5 packet
        # (delivery timestamps at slot end, time + 1).
        delays = np.sort(queues.delay_array())
        np.testing.assert_array_equal(delays, [6, 11, 11])

    def test_rates_shape_mismatch_rejected(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 1, 0]), time=0)
        with pytest.raises(ValueError, match="align"):
            serve_slot(queues, np.array([0]), time=0, rates=np.array([1, 2]))

    def test_negative_rates_rejected(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 1, 0]), time=0)
        with pytest.raises(ValueError, match="negative"):
            serve_slot(queues, np.array([0]), time=0, rates=np.array([-1]))


class TestMalformedRoundsLeaveQueuesUntouched:
    """Every rejection happens before the first packet moves."""

    @pytest.mark.parametrize(
        "slot, rates, error, match",
        [
            ([0, 0], None, ValueError, "slot 0 lists link 0 more than once"),
            ([1, 0, 1], [1, 1, 1], ValueError, "slot 0 lists link 1 more than once"),
            ([0, 1], [1], ValueError, "align"),
            ([0, 1], [2, -1], ValueError, "negative"),
            ([0, 2], None, IndexError, "out of bounds"),
        ],
    )
    @pytest.mark.parametrize("backlog", [1, 3])
    def test_rejected_before_mutation(self, slot, rates, error, match, backlog):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, backlog, backlog]), time=0)
        rates = None if rates is None else np.array(rates)
        with pytest.raises(error, match=match):
            serve_slot(queues, np.array(slot), 0, rates=rates)
        with pytest.raises(error, match=match.replace("slot 0", "slot 1")):
            queues.play(
                np.array([1, *slot]),
                [1, 1 + len(slot)],
                0,
                10,
                2,
                None if rates is None else np.r_[1, rates],
            )
        np.testing.assert_array_equal(queues.backlog, [backlog, backlog])
        np.testing.assert_array_equal(queues.served_by_link, [0, 0])
        assert queues.served_total == queues.plays_total == queues.delivered_total == 0
        assert queues.delays == [] and queues.unusable_reason is None
        # ... and the queues still serve.
        assert serve_slot(queues, np.array([0, 1]), 0) == 2
        queues.check_conservation()

    def test_duplicate_in_a_slot_the_window_never_reaches_is_not_played(self):
        queues = LinkQueues(chain_links())
        queues.arrive(np.array([0, 2, 0]), time=0)
        assert queues.play(np.array([0, 1, 1]), [1, 3], 0, 1, 0) == 1
