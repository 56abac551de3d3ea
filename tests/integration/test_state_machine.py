"""Validating the protocols against Figure 1's state machine.

An observer records every state snapshot; each node's state sequence is
checked transition-by-transition against the paper's diagram (plus the
implicit round-boundary resets the diagram draws as "new slot considered").
"""

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.fast_runtime import FastRuntime
from repro.core.pdd import make_pdd_select_active
from repro.core.fdd import fdd_select_active
from repro.core.protocol import run_protocol
from repro.core.states import ALLOWED_TRANSITIONS, NodeState
from tests.conftest import make_links

#: Transitions legal at any observer checkpoint.  Figure 1's arrows, plus:
#: CONTROL persisting across rounds, identity transitions (no change between
#: checkpoints), and the global COMPLETE->TERMINATE broadcast.
LEGAL = set(ALLOWED_TRANSITIONS) | {(s, s) for s in NodeState}


class TraceValidator:
    """Observer that accumulates snapshots and validates transitions."""

    def __init__(self):
        self.snapshots: list[tuple[str, np.ndarray]] = []

    def __call__(self, event: str, state: np.ndarray) -> None:
        self.snapshots.append((event, state))

    def violations(self) -> list[tuple[str, int, NodeState, NodeState]]:
        bad = []
        for (prev_event, prev), (event, cur) in zip(
            self.snapshots, self.snapshots[1:]
        ):
            for node in range(prev.shape[0]):
                a, b = NodeState(prev[node]), NodeState(cur[node])
                if (a, b) in LEGAL:
                    continue
                bad.append((event, node, a, b))
        return bad

    def events(self) -> list[str]:
        return [e for e, _ in self.snapshots]


@pytest.fixture(scope="module")
def setup(grid16):
    _, links = make_links(grid16, 1, seed=61)
    config = ProtocolConfig(k=5, id_bits=5)
    return grid16, links, config


@pytest.mark.parametrize(
    "select", ["fdd", "pdd"], ids=["fdd", "pdd"]
)
def test_all_transitions_follow_figure_1(setup, select):
    network, links, config = setup
    validator = TraceValidator()
    select_fn = (
        fdd_select_active if select == "fdd" else make_pdd_select_active(0.3)
    )
    result = run_protocol(
        links,
        FastRuntime.for_network(network, config),
        config,
        select_fn,
        rng=2,
        observer=validator,
    )
    assert result.terminated
    assert validator.violations() == []


def test_every_round_has_the_expected_event_skeleton(setup):
    network, links, config = setup
    validator = TraceValidator()
    result = run_protocol(
        links,
        FastRuntime.for_network(network, config),
        config,
        fdd_select_active,
        rng=3,
        observer=validator,
    )
    events = validator.events()
    assert events[-1] == "terminate"
    # Planning a round ahead must not show: checkpoints still arrive one
    # construction step at a time, in paper order.
    expected = []
    for record in result.round_records:
        expected += ["slot-reset"]
        expected += ["select", "resolve"] * record.steps
        expected += ["seal", "demand-update"]
    # ("election" precedes a round only when control was released.)
    assert [e for e in events if e != "election"] == expected + ["terminate"]
    assert events.count("select") == result.tally.steps
    assert events.count("demand-update") == result.schedule_length
    assert events.count("slot-reset") == result.schedule_length
    assert events.count("seal") == result.schedule_length
    # Every slot-reset is eventually followed by a seal before the next one.
    resets = [i for i, e in enumerate(events) if e == "slot-reset"]
    seals = [i for i, e in enumerate(events) if e == "seal"]
    for r, s in zip(resets, seals):
        assert r < s


def test_exactly_one_controller_per_round_in_exact_mode(setup):
    network, links, config = setup
    validator = TraceValidator()
    run_protocol(
        links,
        FastRuntime.for_network(network, config),
        config,
        fdd_select_active,
        rng=4,
        observer=validator,
    )
    for event, state in validator.snapshots:
        if event in ("slot-reset", "select", "resolve", "seal"):
            assert (state == NodeState.CONTROL).sum() == 1


def test_tried_nodes_stay_out_until_round_end(setup):
    """TRIED is absorbing within a slot: once tried, never active again."""
    network, links, config = setup
    validator = TraceValidator()
    run_protocol(
        links,
        FastRuntime.for_network(network, config),
        config,
        make_pdd_select_active(0.5),
        rng=5,
        observer=validator,
    )
    tried: set[int] = set()
    for event, state in validator.snapshots:
        if event == "slot-reset":
            tried.clear()
        elif event == "select":
            active = np.flatnonzero(state == NodeState.ACTIVE)
            assert not tried.intersection(active.tolist())
        elif event == "resolve":
            tried.update(np.flatnonzero(state == NodeState.TRIED).tolist())
