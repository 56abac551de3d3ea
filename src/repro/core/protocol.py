"""The shared round machinery of PDD and FDD (Section III).

Both protocols run the same main loop: elect a controller for the slot,
greedily grow the slot's link set in steps (tentative actives, concurrent
two-way handshakes, SCREAM veto), seal the slot, update demands, and release
control when the controller's demand is met.  They differ only in
``SelectActive`` — probabilistic for PDD, election-based for FDD — which is
injected as a callable.

The node state machine follows Figure 1 of the paper; the pseudocode
ambiguities and our resolutions are documented in DESIGN.md §2.

FDD (and AFDD) also have a closed form, :func:`run_by_theorem4`: where
every SCREAM reaches every node and the steps commute, the whole run is
Theorem 4's first-fit pack in decreasing-ID order, and its step tally
follows from the per-round pool sizes.  :func:`run_protocol` is the
per-step loop every other run takes, and the reference the closed form is
differenced against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from repro.core.config import NO_FAULTS, FaultConfig, ProtocolConfig
from repro.core.events import StepTally
from repro.core.runtime import Runtime
from repro.core.states import NodeState
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.greedy_physical import first_fit_dense
from repro.scheduling.links import LinkSet
from repro.scheduling.orderings import order_by_id
from repro.scheduling.schedule import Schedule, Slot
from repro.util.rng import ensure_rng

#: SelectActive strategy: given (DORMANT mask at the start of the round,
#: runtime, rng), lazily yield the nodes (indices, ascending) that turn ACTIVE
#: in each successive construction step, booking whatever air time selecting
#: them costs.  Every activated node leaves DORMANT for the rest of the round
#: whatever its handshake does, so the sequence is a function of the pool
#: alone; it must never end (the loop cuts it where the slot seals) and must
#: only select nodes still in the pool.
SelectActiveFn = Callable[
    [np.ndarray, Runtime, np.random.Generator], Iterator[np.ndarray]
]

#: Observer hook: called as ``observer(event, state_snapshot)`` at protocol
#: checkpoints.  Events: "election", "slot-reset", "select", "handshake",
#: "resolve", "seal", "demand-update", "terminate".  The snapshot is a copy;
#: observers cannot perturb the run.
ObserverFn = Callable[[str, np.ndarray], None]

# Plain ints for the state codes: comparing a numpy array against an IntEnum
# member converts it on every call, which is measurable in the round loop.
DORMANT, CONTROL, ACTIVE, ALLOCATED, TRIED, COMPLETE, TERMINATE = map(int, NodeState)

#: Hard cap on slot-construction steps; hitting it indicates a logic error
#: (with any p_active > 0 every dormant node is eventually selected).
MAX_STEPS_PER_SLOT = 100_000

#: Trials handed to the first ``resolve_trials`` call of a round when the
#: runtime lets the loop draw ahead; the chunk then doubles after every call
#: that admitted nobody.  A batched resolve costs about as much as a few
#: dozen of its trials, so starting narrower only adds calls.
_FIRST_CHUNK = 32


@dataclass
class RoundRecord:
    """Diagnostics for one protocol round (= one schedule slot)."""

    controllers: tuple[int, ...]
    members: tuple[int, ...]
    steps: int


@dataclass
class ProtocolResult:
    """Outcome of a full distributed protocol execution."""

    schedule: Schedule
    tally: StepTally
    terminated: bool = False
    round_records: list[RoundRecord] = field(default_factory=list)
    #: Simulator cost, not air time (that is ``tally``): how many times the
    #: runtime was asked to resolve construction steps, and how many steps
    #: it was shown in total (a step refused behind an admission is shown
    #: again, so this can exceed ``tally.steps``).
    resolve_calls: int = field(default=0, init=False)
    trials_evaluated: int = field(default=0, init=False)

    @property
    def schedule_length(self) -> int:
        return self.schedule.length


def run_protocol(
    links: LinkSet,
    runtime: Runtime,
    config: ProtocolConfig,
    select_active: SelectActiveFn,
    rng: np.random.Generator | int | None = None,
    observer: ObserverFn | None = None,
) -> ProtocolResult:
    """Execute the distributed scheduling main loop until termination.

    Parameters
    ----------
    links:
        Forest link set: one link per head node (the protocols' one-to-one
        node/edge mapping).  ``links.ids`` must agree with the runtime's
        per-node IDs on head nodes.
    runtime:
        Execution substrate providing scream / leader_elect / handshake.
    config:
        Protocol constants (K, id_bits, sealing rule, ...).
    select_active:
        The protocol-specific ``SelectActive`` strategy.
    rng:
        Randomness for the strategy (PDD's coin flips).
    observer:
        Optional hook receiving (event, state snapshot) at protocol
        checkpoints; used by tests to validate Figure 1's state machine.

    Returns
    -------
    ProtocolResult
        The computed schedule (one slot per round), consumed step tally, and
        per-round diagnostics (controllers, members, step counts).
        ``terminated`` is False only if the ``max_rounds`` safety cap fired.
    """
    n = runtime.n_nodes
    generator = ensure_rng(rng)
    _check_link_ids(links, runtime)

    link_of_node = np.full(n, -1, dtype=np.intp)
    link_of_node[links.heads] = np.arange(links.n_links, dtype=np.intp)
    tail_of = np.full(n, -1, dtype=np.intp)
    tail_of[links.heads] = links.tails

    state = np.full(n, COMPLETE, dtype=np.int8)
    remaining = np.zeros(n, dtype=np.int64)
    with_demand = links.heads[links.demand > 0]
    state[with_demand] = DORMANT
    remaining[with_demand] = links.demand[links.demand > 0]

    result = ProtocolResult(schedule=Schedule(link_set=links), tally=runtime.tally)
    max_rounds = _max_rounds(links, config)

    released = True
    while len(result.schedule.slots) < max_rounds:
        if released:
            participating = state != COMPLETE
            winners = runtime.leader_elect(participating)
            state[winners] = CONTROL
            runtime.sync()
            term_view = runtime.scream(winners)
            if not term_view.any():
                state[:] = TERMINATE
                result.terminated = True
                if observer is not None:
                    observer("terminate", state.copy())
                break
            if observer is not None:
                observer("election", state.copy())

        members, steps = _greedy_schedule_slot(
            state, tail_of, runtime, config, select_active, generator, observer, result
        )
        runtime.tally.rounds += 1
        result.schedule.slots.append(Slot(links=link_of_node[members].tolist()))

        remaining[members] -= 1
        controllers = np.flatnonzero(state == CONTROL)
        allocated = members[state[members] == ALLOCATED]
        state[allocated[remaining[allocated] <= 0]] = COMPLETE

        # Control-release SCREAM: the controller(s) scream satisfaction.
        satisfied = remaining[controllers] <= 0
        release_inputs = np.zeros(n, dtype=bool)
        release_inputs[controllers[satisfied]] = True
        runtime.sync()
        released = bool(runtime.scream(release_inputs).any())
        if released:
            state[controllers[satisfied]] = COMPLETE
            state[controllers[~satisfied]] = DORMANT
        if observer is not None:
            observer("demand-update", state.copy())

        result.round_records.append(
            RoundRecord(
                controllers=tuple(controllers.tolist()),
                members=tuple(members.tolist()),
                steps=steps,
            )
        )

    return result


def run_by_theorem4(
    links: LinkSet,
    runtime: Runtime,
    config: ProtocolConfig,
    refresh_screams: int | None = None,
) -> ProtocolResult | None:
    """FDD's whole run in closed form, or ``None`` where it has none.

    Theorem 4: FDD's schedule is GreedyPhysical's in decreasing-ID order.
    On a substrate whose every SCREAM reaches every node and whose steps
    commute (:attr:`Runtime.theorem4_model`), with every demanded link
    decoding alone, its head IDs fitting ``id_bits`` and the run ending
    within ``max_rounds``, the run *is* one dense first-fit pack on the
    runtime's model (budget included), and every ``StepTally`` field
    follows from the per-round pool sizes (DESIGN.md §2, "Theorem 4 as a
    closed form") — no election, SCREAM or handshake is simulated, and
    ``resolve_calls`` stays 0.  Head IDs are unique (``LinkSet``'s own
    invariant, tied to the runtime's by ``_check_link_ids``), so every
    election has one winner.  Where a condition fails the caller runs
    :func:`run_protocol`, which executes the same run step by step.

    ``refresh_screams`` is the selection cost: ``None`` for FDD (one full
    election per construction step), AFDD's refresh SCREAMs otherwise (one
    election per round, then that many SCREAMs per later step).
    """
    demanded = theorem4_order(links, runtime, config)
    if demanded is None:
        return None
    [pack] = first_fit_dense(
        SlotArena(runtime.theorem4_model),
        [links.heads[demanded]],
        [links.tails[demanded]],
        [links.demand[demanded]],
        count_vetoes=True,
    )
    return theorem4_result(links, runtime, config, refresh_screams, demanded, pack)


def theorem4_order(
    links: LinkSet, runtime: Runtime, config: ProtocolConfig
) -> np.ndarray | None:
    """The demanded links in the order :func:`run_by_theorem4` packs them
    on ``runtime.theorem4_model``, or ``None`` where the run has no closed
    form before packing (a substrate that does not saturate, a link that
    does not decode alone, a head ID wider than ``id_bits``)."""
    model = runtime.theorem4_model
    if model is None:
        return None
    _check_link_ids(links, runtime)
    order = order_by_id(links, model)
    demanded = order[links.demand[order] > 0]
    heads, tails = links.heads[demanded], links.tails[demanded]
    if demanded.size and not (
        links.ids[demanded[0]] < 1 << config.id_bits  # elections would raise
        and feasible_alone(model, heads, tails).all()  # FDD ends, the packer raises
    ):
        return None
    return demanded


def theorem4_result(
    links: LinkSet,
    runtime: Runtime,
    config: ProtocolConfig,
    refresh_screams: int | None,
    demanded: np.ndarray,
    pack: tuple,
) -> ProtocolResult | None:
    """:func:`run_by_theorem4`'s run from the ``first_fit_dense`` pack of
    the :func:`theorem4_order` links: the schedule, the round log and the
    tally, booked on ``runtime``; ``None`` if it would exceed
    ``max_rounds``."""
    slots, last, vetoes = pack
    heads = links.heads[demanded]
    n_rounds = len(slots)
    if n_rounds >= _max_rounds(links, config):
        return None

    # Round r's pool: the links still short at its start (their last
    # membership is r or later), minus the controller — the largest ID
    # among them, which heads the slot.
    rounds = np.arange(n_rounds)
    pool = np.bincount(last, minlength=n_rounds)[::-1].cumsum()[::-1] - 1
    steps = pool + 1 if config.seal_on_idle_step else np.maximum(pool, 1)
    controller = np.array([members[0] for members in slots], dtype=np.intp)
    # An election opens the run and follows every round that satisfies its
    # controller; the last one finds nobody and terminates.
    elections = 1 + int(np.count_nonzero(last[controller] == rounds))
    total = int(steps.sum())
    bits = config.id_bits
    if refresh_screams is None:
        selections, select_screams = total, bits * total
    else:
        selections = n_rounds
        select_screams = bits * n_rounds + refresh_screams * (total - n_rounds)

    tally = runtime.tally
    tally.rounds += n_rounds
    tally.steps += total
    tally.veto_steps += vetoes
    tally.elections += selections + elections
    tally.add_handshake(total)
    # A step: sync + handshake + veto SCREAM, sync + seal-check SCREAM.  A
    # round: sync + release SCREAM.  An election: id_bits SCREAMs, then
    # sync + the controller's SCREAM.
    tally.add_sync(2 * total + n_rounds + elections)
    tally.add_scream(
        config.k, select_screams + 2 * total + n_rounds + (bits + 1) * elections
    )

    result = ProtocolResult(schedule=Schedule(link_set=links), tally=tally, terminated=True)
    if not n_rounds:
        return result
    # FDD lists a slot's members by head node, the packer by allocation.
    members = np.concatenate(slots)
    slot_of = np.repeat(rounds, [len(m) for m in slots])
    members = members[np.lexsort((heads[members], slot_of))]
    link_ids = demanded[members].tolist()
    cuts = np.searchsorted(slot_of, np.arange(n_rounds + 1)).tolist()
    result.schedule.slots = [Slot(links=link_ids[a:b]) for a, b in zip(cuts, cuts[1:])]
    nodes = heads[members].tolist()
    result.round_records = list(
        map(
            RoundRecord,
            [(c,) for c in heads[controller].tolist()],
            [tuple(nodes[a:b]) for a, b in zip(cuts, cuts[1:])],
            steps.tolist(),
        )
    )
    return result


def _greedy_schedule_slot(
    state: np.ndarray,
    tail_of: np.ndarray,
    runtime: Runtime,
    config: ProtocolConfig,
    select_active: SelectActiveFn,
    rng: np.random.Generator,
    observer: ObserverFn | None,
    result: ProtocolResult,
) -> tuple[np.ndarray, int]:
    """Grow one slot greedily; return (member nodes, construction steps).

    Implements the ``GreedyScheduleSlot`` subroutine: every node outside
    COMPLETE/CONTROL returns to DORMANT, then construction steps
    (SelectActive -> handshake -> SCREAM veto -> SCREAM seal-check, see
    :meth:`Runtime.resolve_trials`) repeat until the slot seals.

    The loop *plans, then resolves*.  Which nodes a step activates, and
    after which step the slot seals, depend only on the DORMANT pool —
    never on a handshake (DESIGN.md §2) — so the strategy's activations
    are drawn ahead and handed to the runtime a chunk at a time; the
    runtime executes them up to the first that admits somebody, and what
    is left is resolved again against the grown slot.
    """
    reset = (state != COMPLETE) & (state != CONTROL)
    state[reset] = DORMANT
    if observer is not None:
        observer("slot-reset", state.copy())

    # The nodes just reset are exactly the round's DORMANT pool.
    plan = _until_sealed(
        select_active(reset, runtime, rng), int(reset.sum()), config.seal_on_idle_step
    )
    # Drawing ahead reorders the plan's SCREAMs relative to the trials';
    # an observer expects its checkpoints in paper order, too.
    ahead = observer is None and runtime.batches_trials
    width = _FIRST_CHUNK if ahead else 1
    pending: list[np.ndarray] = []
    confirmed = np.flatnonzero(state == CONTROL)
    steps = 0
    while True:
        pending.extend(islice(plan, width - len(pending)))
        if not pending:
            break
        dormant = state == DORMANT
        if observer is not None:
            state[pending[0]] = ACTIVE
            observer("select", state.copy())

        done, joined = runtime.resolve_trials(
            confirmed, pending, tail_of, dormant, config.seal_on_idle_step
        )
        result.resolve_calls += 1
        result.trials_evaluated += len(pending)
        state[np.concatenate(pending[:done])] = TRIED
        del pending[:done]
        steps += done
        if joined.size:
            state[joined] = ALLOCATED
            confirmed = np.sort(np.concatenate([confirmed, joined]))
        elif ahead:
            # A whole chunk of refusals: the slot is filling up, look
            # further ahead next time.  Growth is geometric, so a round
            # makes O(log pool) calls that admit nobody, and an admission
            # re-shows at most the chunk it sat in.
            width *= 2
        if observer is not None:
            observer("resolve", state.copy())

    runtime.tally.steps += steps
    if observer is not None:
        observer("seal", state.copy())
    return confirmed, steps


def _until_sealed(
    activations: Iterator[np.ndarray], n_dormant: int, seal_on_idle: bool
) -> Iterator[np.ndarray]:
    """Cut a strategy's endless activation stream where the slot seals.

    By default the slot seals after the step that empties the DORMANT pool
    (at least one step is always taken); under ``seal_on_idle`` after the
    first step that activates nobody.
    """
    for steps, activated in enumerate(activations, start=1):
        if steps > MAX_STEPS_PER_SLOT:
            raise RuntimeError(
                "slot construction exceeded the step cap; "
                "SelectActive appears unable to drain the dormant pool"
            )
        yield activated
        n_dormant -= activated.size
        if activated.size == 0 if seal_on_idle else n_dormant == 0:
            return


def run_on_network(
    network,
    links: LinkSet,
    runner: Callable[..., ProtocolResult],
    config: ProtocolConfig | None = None,
    faults: FaultConfig = NO_FAULTS,
    rng: np.random.Generator | int | None = None,
    model=None,
) -> ProtocolResult:
    """Shared body of the ``fdd/pdd/afdd_on_network`` convenience wrappers.

    Builds a fresh :class:`~repro.core.fast_runtime.FastRuntime` on
    ``network`` and hands it to ``runner`` (``run_fdd`` / ``run_pdd`` /
    ``run_afdd``), deriving the runtime and protocol rng substreams
    exactly as the wrappers always did (``spawn(root, "runtime")`` /
    ``spawn(root, "protocol")``), so traces are bit-identical to the
    previous per-protocol copies.  ``model`` optionally replaces the
    network's feasibility oracle (e.g. a guard-margin budgeted oracle from
    the sharded epoch engine); handshake outcomes then reflect the
    substituted model.
    """
    # Imported here: fast_runtime is a sibling that higher layers pull in
    # through the protocol wrappers, keeping this module runtime-agnostic.
    from repro.core.fast_runtime import FastRuntime
    from repro.util.rng import ensure_rng, spawn

    cfg = config or ProtocolConfig()
    root = ensure_rng(rng)
    runtime = FastRuntime.for_network(
        network,
        cfg,
        faults=faults,
        rng=spawn(root, "runtime"),
        model=model,
    )
    return runner(links, runtime, cfg, rng=spawn(root, "protocol"))


def _max_rounds(links: LinkSet, config: ProtocolConfig) -> int:
    """The ``max_rounds`` safety cap; ``None`` derives ``10 * TD + 10``."""
    if config.max_rounds is not None:
        return config.max_rounds
    return 10 * max(links.total_demand, 1) + 10


def _check_link_ids(links: LinkSet, runtime: Runtime) -> None:
    """Links' head IDs must agree with the runtime's node IDs (elections)."""
    expected = np.asarray(runtime.ids)[links.heads]
    if not np.array_equal(expected, links.ids):
        raise ValueError(
            "LinkSet ids disagree with runtime node ids on head nodes; "
            "leader election and edge ordering would diverge"
        )
