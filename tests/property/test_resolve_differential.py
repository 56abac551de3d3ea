"""Batched round operations and FDD's closed form ≡ the per-step defaults.

``FastRuntime`` resolves a chunk of construction steps in one batched
handshake kernel and reads a saturated substrate's election order off the
sorted IDs; on a saturated, fault-free, dense substrate FDD and AFDD skip
the steps altogether (``run_by_theorem4``: one first-fit pack and a
closed-form tally).  All are simulator shortcuts: every value they return
and every step they book must equal what the reference defaults in
:class:`~repro.core.runtime.Runtime` produce one step at a time
(``tests/conftest.py::StepwiseRuntime``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dataclasses import replace

from repro.core.afdd import run_afdd
from repro.core.config import FaultConfig, ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.fdd import fdd_select_active, run_fdd
from repro.core.pdd import run_pdd
from repro.core.protocol import run_protocol
from repro.core.runtime import Runtime
from repro.phy.interference import PhysicalInterferenceModel
from repro.phy.radio import RadioConfig
from repro.routing import build_routing_forest, random_gateways
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.links import LinkSet
from repro.topology.network import grid_network, uniform_network
from tests.conftest import StepwiseRuntime, make_links, uniform_draw


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
    network = uniform_draw(n, density, seed)
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
    """What the closed form's tally rests on: on a saturated substrate,
    elections repeated on a shrinking pool elect it in decreasing-ID order
    (equal IDs win together), each one booking an election and ``id_bits``
    SCREAMs, and go on electing nobody once the pool is spent."""
    network = grid_network(3, 3, density_per_km2=8000)
    rng = np.random.default_rng(seed)
    ids = rng.permutation(32)[:9] if distinct else rng.integers(0, 6, 9)
    config = ProtocolConfig(k=9, id_bits=5)
    pool = rng.random(9) < 0.7

    runtime = FastRuntime.for_network(network, config, ids=ids)
    assert runtime.theorem4_model is not None
    plan = runtime.elect_each(pool)
    drawn = [next(plan).tolist() for _ in range(int(pool.sum()) + 2)]
    members = np.flatnonzero(pool)
    order = sorted(set(ids[members].tolist()), reverse=True)
    expected = [members[ids[members] == v].tolist() for v in order]
    assert drawn == expected + [[]] * (len(drawn) - len(expected))
    tally = runtime.tally
    assert tally.elections == len(drawn)
    assert tally.scream_calls == config.id_bits * len(drawn)
    assert tally.multi_winner_elections == sum(len(w) > 1 for w in expected)


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
            RUNNERS[protocol](links, cls.for_network(network, config), config, rng=5)
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
        return run_pdd(links, cls.for_network(grid64, config), config, rng=5)

    uncapped, stepwise = run(FastRuntime), run(StepwiseRuntime)
    monkeypatch.setattr(fast_runtime, "GATHER_ELEMENTS", 64)
    capped = run(FastRuntime)
    assert capped.resolve_calls > uncapped.resolve_calls
    for result in (uncapped, capped):
        assert result.round_records == stepwise.round_records
        assert result.tally.as_dict() == stepwise.tally.as_dict()


# --------------------------------------------------------------------------
# FDD / AFDD by Theorem 4: the closed form ≡ the per-step run.
# --------------------------------------------------------------------------


@st.composite
def fdd_case(draw):
    """A connected deployment, a forest with demands 1–4 (some links idle),
    IDs that are a permutation (so decreasing-ID order is not node order),
    the plain or a budgeted model, and either sealing rule.  The budget is
    small (every link still decodes alone) or not (some link does not)."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        side = draw(st.integers(3, 6))
        network = grid_network(
            side, side, density_per_km2=draw(st.sampled_from([800.0, 2500.0, 8000.0]))
        )
    else:
        network = uniform_network(
            draw(st.integers(8, 24)),
            density_per_km2=draw(st.sampled_from([1500.0, 4000.0])),
            rng=seed,
        )
    n = network.n_nodes
    gateways = random_gateways(n, draw(st.integers(1, 3)), rng)
    forest = build_routing_forest(network.comm_adj, gateways, rng=rng)
    heads = forest.edge_heads
    demand = rng.integers(1, 5, heads.size) * (rng.random(heads.size) < 0.85)
    ids = rng.permutation(1 << 6)[:n] if draw(st.booleans()) else np.arange(n)
    links = LinkSet(heads, forest.parent[heads], demand, ids[heads])
    model = network.model
    budget = draw(st.sampled_from([None, 0.02, 3.0]))
    if budget is not None:
        model = model.with_budget(rng.random(n) * network.radio.noise_mw * budget)
    config = ProtocolConfig(
        k=n, id_bits=6, seal_on_idle_step=draw(st.booleans())
    )
    return network, links, model, config, ids


def _run_both(runner, network, links, model, config, ids, **kw):
    return [
        runner(
            links,
            cls.for_network(network, config, ids=ids, model=model, **kw),
            config,
            rng=5,
        )
        for cls in (FastRuntime, StepwiseRuntime)
    ]


def _assert_same_run(fast, stepwise):
    assert [s.links for s in fast.schedule.slots] == [
        s.links for s in stepwise.schedule.slots
    ]
    assert fast.tally.as_dict() == stepwise.tally.as_dict()
    assert fast.round_records == stepwise.round_records
    assert fast.terminated == stepwise.terminated


@given(fdd_case(), st.sampled_from(["fdd", "afdd"]))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_per_step_run(case, protocol):
    """Slot lists, every ``StepTally`` field and ``round_records``; the
    closed form is taken exactly when every demanded link decodes alone
    (everything else about these runtimes qualifies)."""
    network, links, model, config, ids = case
    fast, stepwise = _run_both(RUNNERS[protocol], *case)
    _assert_same_run(fast, stepwise)
    demanded = links.demand > 0
    alone = feasible_alone(model, links.heads[demanded], links.tails[demanded]).all()
    assert (fast.resolve_calls == 0) == alone
    assert fast.trials_evaluated == 0 or not alone
    assert stepwise.resolve_calls == stepwise.tally.steps


@st.composite
def packed_arena(draw):
    """A first-fit-packed dense arena and the links left to try against it.

    Tails are among each head's three nearest nodes, so candidates share
    nodes with members every way a forest allows and more: a candidate's
    receiver sends in the slot, its sender receives there, two links
    converge on one receiver."""
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(6, 18))
    network = uniform_draw(n, draw(st.sampled_from([150.0, 500.0, 4000.0])), seed)
    rng = np.random.default_rng(seed)
    dist = np.linalg.norm(
        network.positions[:, None, :] - network.positions[None, :, :], axis=2
    )
    tails = np.argsort(dist, axis=1)[np.arange(n), rng.integers(1, 4, n)]
    model = network.model
    if draw(st.booleans()):
        # A node's own transmission drowns what it would receive in a
        # physical matrix (the diagonal holds its transmit power); with the
        # diagonal cleared only the half-duplex rule makes it deaf.
        power = model.power.copy()
        np.fill_diagonal(power, 0.0)
        model = PhysicalInterferenceModel(power, model.radio)
    if draw(st.booleans()):
        model = model.with_budget(rng.random(n) * network.radio.noise_mw * 0.5)
    heads = rng.permutation(n)
    heads = heads[feasible_alone(model, heads, tails[heads])]
    arena, slots = SlotArena(model), []
    split = draw(st.integers(0, heads.size))
    for h in heads[:split].tolist():
        admits = np.flatnonzero(arena.can_add_all(h, int(tails[h])))[:1]
        if admits.size:
            arena.add(admits, h, int(tails[h]))
            slots[int(admits[0])].append(h)
        else:
            arena.seed([arena.n_slots], [h], [int(tails[h])])
            slots.append([h])
    return model, tails, arena, slots, heads[split:]


@given(packed_arena())
@settings(max_examples=120, deadline=None)
def test_handshake_verdicts_match_handshake_mask(case):
    """Per slot: the arena admits a candidate iff its own conditional-ACK
    handshake succeeds and no member's fails, and a member objects iff one
    fails — ``handshake_mask`` on the slot's members plus the candidate."""
    model, tails, arena, slots, candidates = case
    for c in candidates.tolist():
        admits, objects = arena.handshake_verdicts(c, int(tails[c]))
        assert np.array_equal(admits, arena.can_add_all(c, int(tails[c])))
        for j, members in enumerate(slots):
            senders = np.sort(np.array(members + [c]))
            success = model.handshake_mask(senders, tails[senders])
            member = senders != c
            assert objects[j] == (~success[member]).any()
            assert admits[j] == success.all()


@pytest.mark.parametrize(
    "candidate, objects",
    [((0, 1), False), ((2, 0), True)],
    ids=["candidate-deaf", "member-deaf"],
)
def test_handshake_verdicts_apply_half_duplex(candidate, objects):
    """A power matrix whose diagonal is zero leaves deafness to the
    half-duplex rule alone.  Slot: 1→2 and 3→4, strong links.  Candidate
    0→1 cannot hear its data (node 1 sends), so its ACK never goes out
    and cannot break 3→4's ACK, loud as it would be; candidate 2→0 sends
    on 1→2's receiver, which then objects."""
    radio = RadioConfig()
    strong, weak = 1e3 * radio.noise_mw, 1e-3 * radio.noise_mw
    power = np.full((5, 5), weak)
    np.fill_diagonal(power, 0.0)
    for a, b in [(1, 2), (3, 4), candidate]:
        power[a, b] = power[b, a] = strong
    power[1, 3] = strong  # 0→1's ACK, were it sent, lands on 3→4's sender
    model = PhysicalInterferenceModel(power, radio)
    arena = SlotArena(model)
    arena.seed([0, 0], [1, 3], [2, 4])
    admits, objected = arena.handshake_verdicts(*candidate)
    senders = np.array(sorted([1, 3, candidate[0]]))
    tails = {1: 2, 3: 4, candidate[0]: candidate[1]}
    success = model.handshake_mask(senders, np.array([tails[s] for s in senders]))
    assert not admits[0]
    assert objected[0] == objects == (~success[senders != candidate[0]]).any()


@pytest.fixture(scope="module")
def grid36():
    network = grid_network(6, 6, density_per_km2=2500)
    _, links = make_links(network, 2, seed=3, demand_high=4)
    return network, links


def _budget_strands_a_link(network, links):
    """A per-node budget under which some demanded link cannot decode
    alone — FDD still terminates, the packer would raise."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        model = network.model.with_budget(rng.random(network.n_nodes) * network.radio.noise_mw * 3)
        if not feasible_alone(model, links.heads, links.tails).all():
            return model
    raise AssertionError("no budget strands a link")


FAILED_CONDITIONS = ["pdd", "faults", "truncated-k", "observer", "undecodable", "max-rounds"]


@pytest.mark.parametrize("condition", FAILED_CONDITIONS)
@pytest.mark.parametrize("protocol", ["fdd", "afdd"])
def test_failed_condition_takes_per_step_path(grid36, condition, protocol):
    """Each condition the closed form needs, broken alone: the run resolves
    its steps (``resolve_calls > 0``) and still equals the reference."""
    network, links = grid36
    config = ProtocolConfig(k=9, id_bits=8, p_active=0.3)
    runner, model, kw = RUNNERS[protocol], network.model, {}
    if condition == "pdd":
        runner = run_pdd
    elif condition == "faults":
        kw = {"faults": FaultConfig(scream_miss_prob=0.02), "rng": 11}
    elif condition == "truncated-k":
        config = replace(config, k=1)
    elif condition == "undecodable":
        model = _budget_strands_a_link(network, links)
    elif condition == "max-rounds":
        full = runner(links, FastRuntime.for_network(network, config), config)
        assert full.resolve_calls == 0
        config = replace(config, max_rounds=full.schedule_length)  # ends before terminating
    elif condition == "observer":
        # ``run_protocol`` itself is the per-step loop, and the only entry
        # that takes an observer.
        events = []

        def runner(links, runtime, config, rng=None):
            return run_protocol(
                links,
                runtime,
                config,
                fdd_select_active,
                rng=rng,
                observer=lambda event, state: events.append(event),
            )

    ids = np.arange(network.n_nodes)
    fast, stepwise = _run_both(runner, network, links, model, config, ids, **kw)
    assert fast.resolve_calls > 0
    if condition == "faults":
        # A faulty run draws misses in paper order on each runtime's own
        # stream; the fast runtime resolves steps one at a time there too.
        assert fast.resolve_calls == fast.tally.steps
    _assert_same_run(fast, stepwise)
    if condition == "max-rounds":
        assert not fast.terminated
    if condition == "observer":
        assert "terminate" in events


def test_duplicate_head_ids_never_reach_a_protocol(grid36):
    """Unique head IDs, the closed form's last condition, is an invariant:
    a ``LinkSet`` refuses duplicate IDs, and a protocol refuses links whose
    IDs are not the runtime's on their heads — so no election can have two
    winners among contending heads on a saturated substrate."""
    network, links = grid36
    with pytest.raises(ValueError, match="unique"):
        LinkSet(links.heads, links.tails, links.demand, np.zeros_like(links.ids))
    config = ProtocolConfig(k=9, id_bits=8)
    ids = np.arange(network.n_nodes)
    ids[links.heads[0]] = ids[links.heads[1]]
    runtime = FastRuntime.for_network(network, config, ids=ids)
    with pytest.raises(ValueError, match="disagree"):
        run_fdd(links, runtime, config)


def test_ids_too_wide_raise_on_either_path(grid36):
    """The elections refuse an ID ``id_bits`` cannot hold; the closed form
    does not hide that."""
    network, links = grid36
    config = ProtocolConfig(k=9, id_bits=5)
    for cls in (FastRuntime, StepwiseRuntime):
        with pytest.raises(ValueError, match="id_bits"):
            run_fdd(links, cls.for_network(network, config), config)
