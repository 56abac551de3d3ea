"""Batched round operations ≡ the per-step ``Runtime`` defaults.

``FastRuntime`` resolves a chunk of construction steps in one batched
handshake kernel and reads a saturated substrate's election order off the
sorted IDs.  Both are simulator shortcuts: every value they return and every
step they book must equal what the reference defaults in
:class:`~repro.core.runtime.Runtime` produce one step at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.afdd import run_afdd
from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import run_fdd
from repro.core.pdd import run_pdd
from repro.core.runtime import Runtime
from repro.topology.network import grid_network, uniform_network
from tests.conftest import StepwiseRuntime, make_links


@st.composite
def slot_case(draw):
    """A random deployment with a half-built slot and a queue of trials.

    Heterogeneous powers; every head's tail is one of its three nearest
    nodes, so links share endpoints (a tail that heads another link is deaf
    when both are on the air; two links can converge on one tail) and some
    links cannot decode even alone.
    """
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(6, 18))
    density = draw(st.sampled_from([150.0, 500.0, 4000.0]))
    network = uniform_network(
        n, density_per_km2=density, rng=seed, require_connected=False
    )
    rng = np.random.default_rng(seed)
    dist = np.linalg.norm(
        network.positions[:, None, :] - network.positions[None, :, :], axis=2
    )
    nearest = np.argsort(dist, axis=1)[:, 1:4]
    tail_of = nearest[np.arange(n), rng.integers(0, 3, n)]

    heads = rng.permutation(n)[: draw(st.integers(2, n))]
    n_confirmed = draw(st.integers(0, min(4, heads.size - 1)))
    confirmed = np.sort(heads[:n_confirmed])
    queue = heads[n_confirmed:]
    cuts = np.sort(rng.integers(0, queue.size + 1, draw(st.integers(0, 6))))
    trials = [np.sort(t) for t in np.split(queue, cuts)]

    model = network.model
    if draw(st.booleans()):
        model = model.with_budget(rng.random(n) * network.radio.noise_mw * 4)
    k = draw(st.sampled_from([1, 2, n]))
    seal_on_idle = draw(st.booleans())
    dormant = np.zeros(n, dtype=bool)
    dormant[queue] = True

    def runtime():
        return FastRuntime.for_network(
            network, ProtocolConfig(k=k, id_bits=5), model=model
        )

    return runtime, model, confirmed, trials, tail_of, dormant, seal_on_idle


def _walk(runtime, resolve, confirmed, trials, tail_of, dormant, seal_on_idle, width):
    """Resolve every trial in chunks of ``width``, growing the slot."""
    pending, dormant, joins = list(trials), dormant.copy(), []
    while pending:
        done, joined = resolve(
            runtime, confirmed, pending[:width], tail_of, dormant, seal_on_idle
        )
        joins += [()] * (done - 1) + [tuple(joined.tolist())]
        dormant[np.concatenate(pending[:done])] = False
        confirmed = np.sort(np.concatenate([confirmed, joined]))
        del pending[:done]
    return joins, confirmed.tolist(), runtime.tally.as_dict()


@given(slot_case())
@settings(max_examples=120, deadline=None)
def test_batched_resolve_matches_per_step_default(case):
    """Per-trial joins, the grown slot and the full tally, at any width."""
    runtime, _, *slot = case
    reference = _walk(runtime(), Runtime.resolve_trials, *slot, width=1)
    for width in (1, 2, len(slot[1])):
        assert _walk(runtime(), FastRuntime.resolve_trials, *slot, width=width) == reference


@given(slot_case())
@settings(max_examples=120, deadline=None)
def test_handshake_trials_rows_match_handshake_mask(case):
    """Every row of the batched kernel is one ``handshake_mask`` call."""
    _, model, confirmed, trials, tail_of, *_ = case
    width = confirmed.size + max(t.size for t in trials)
    senders = np.zeros((len(trials), width), dtype=np.intp)
    valid = np.zeros((len(trials), width), dtype=bool)
    for row, activated in enumerate(trials):
        members = np.sort(np.concatenate([confirmed, activated]))
        # Padding anywhere, not only at the end: spread the members out.
        at = np.sort(np.random.default_rng(row).permutation(width)[: members.size])
        senders[row, at] = members
        valid[row, at] = True
    batched = model.handshake_trials(senders, tail_of[senders], valid)
    assert not batched[~valid].any()
    for row in range(len(trials)):
        snd = senders[row, valid[row]]
        assert np.array_equal(
            batched[row, valid[row]], model.handshake_mask(snd, tail_of[snd])
        )


def test_middle_axis_sum_is_sequential():
    """The numpy behaviour the kernel's bit-identity rests on: reducing a
    C-ordered ``(T, L, L)`` array over its middle axis adds row after row,
    exactly like ``sum(axis=0)`` on each ``(L, L)`` block."""
    rng = np.random.default_rng(0)
    for width in (1, 2, 3, 7, 8, 9, 33, 130):
        stack = rng.random((5, width, width)) * 10.0 ** rng.integers(-12, 3, (5, width, 1))
        rows = np.zeros((5, width))
        for i in range(width):
            rows = rows + stack[:, i, :]
        assert np.array_equal(stack.sum(axis=1), rows)
        for t in range(5):
            assert np.array_equal(stack.sum(axis=1)[t], stack[t].sum(axis=0))


@given(
    seed=st.integers(0, 2**31 - 1),
    distinct=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_closed_form_election_order_matches_repeated_elections(seed, distinct):
    """Saturated substrate: winners and booked air time, election by
    election, including ties (equal IDs win together) and the elections
    held on an empty pool."""
    network = grid_network(3, 3, density_per_km2=8000)
    rng = np.random.default_rng(seed)
    ids = rng.permutation(32)[:9] if distinct else rng.integers(0, 6, 9)
    config = ProtocolConfig(k=9, id_bits=5)
    pool = rng.random(9) < 0.7

    def winners(runtime, elect_each):
        assert runtime._saturated
        plan = elect_each(runtime, pool)
        drawn = [next(plan).tolist() for _ in range(int(pool.sum()) + 2)]
        return drawn, runtime.tally.as_dict()

    fast = FastRuntime.for_network(network, config, ids=ids)
    reference = FastRuntime.for_network(network, config, ids=ids)
    assert winners(fast, FastRuntime.elect_each) == winners(
        reference, Runtime.elect_each
    )


RUNNERS = {"fdd": run_fdd, "afdd": run_afdd, "pdd": run_pdd}


@pytest.fixture(scope="module")
def sparse40():
    """Unplanned, heterogeneous, interference diameter 3: K=1 truncates
    SCREAMs hard (partial veto reach, multi-winner elections)."""
    return uniform_network(40, density_per_km2=600, rng=3)


@pytest.mark.parametrize("seal_on_idle", [False, True], ids=["seal-dormant", "seal-idle"])
@pytest.mark.parametrize("protocol", sorted(RUNNERS))
@pytest.mark.parametrize("k", [1, 9], ids=["truncated", "saturated"])
def test_whole_run_identity(grid64, sparse40, protocol, seal_on_idle, k):
    """Schedule, full ``StepTally`` and ``round_records`` of complete runs."""
    config = ProtocolConfig(
        k=k, id_bits=8, p_active=0.3, seal_on_idle_step=seal_on_idle, max_rounds=300
    )
    for network, gateways, seed in ((grid64, 4, 7), (sparse40, 2, 23)):
        _, links = make_links(network, gateways, seed=seed)
        fast, stepwise = (
            RUNNERS[protocol](
                links, cls.for_network(network, config), config, rng=5, record_rounds=True
            )
            for cls in (FastRuntime, StepwiseRuntime)
        )
        assert [s.links for s in fast.schedule.slots] == [
            s.links for s in stepwise.schedule.slots
        ]
        assert fast.tally.as_dict() == stepwise.tally.as_dict()
        assert fast.round_records == stepwise.round_records
        assert fast.terminated == stepwise.terminated
        if k == 1 and protocol != "pdd":
            assert fast.tally.multi_winner_elections > 0
        # The reference resolves one step per call; batching must not.
        assert stepwise.resolve_calls == stepwise.tally.steps
        assert fast.resolve_calls < stepwise.resolve_calls


def test_gather_cap_splits_batches_without_changing_results(grid64, monkeypatch):
    """A batch too wide for one gather is resolved in several calls."""
    from repro.core import fast_runtime

    config = ProtocolConfig(k=9, id_bits=8, p_active=0.6)
    _, links = make_links(grid64, 4, seed=7)

    def run(cls):
        return run_pdd(
            links, cls.for_network(grid64, config), config, rng=5, record_rounds=True
        )

    uncapped, stepwise = run(FastRuntime), run(StepwiseRuntime)
    monkeypatch.setattr(fast_runtime, "GATHER_ELEMENTS", 64)
    capped = run(FastRuntime)
    assert capped.resolve_calls > uncapped.resolve_calls
    for result in (uncapped, capped):
        assert result.round_records == stepwise.round_records
        assert result.tally.as_dict() == stepwise.tally.as_dict()
