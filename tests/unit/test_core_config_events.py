"""Protocol configuration, fault configuration, states, step tallies."""

import pytest

from repro.core.config import NO_FAULTS, FaultConfig, ProtocolConfig
from repro.core.events import StepTally
from repro.core.states import ALLOWED_TRANSITIONS, NodeState


class TestProtocolConfig:
    def test_defaults_match_paper(self):
        config = ProtocolConfig()
        assert config.k == 5
        assert config.smbytes == 15

    def test_with_p(self):
        config = ProtocolConfig()
        assert config.with_p(0.7).p_active == 0.7
        assert config.k == 5  # original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(k=0)
        with pytest.raises(ValueError):
            ProtocolConfig(p_active=1.5)
        with pytest.raises(ValueError):
            ProtocolConfig(id_bits=0)
        with pytest.raises(ValueError):
            ProtocolConfig(max_rounds=0)


class TestFaultConfig:
    def test_faultless_flag(self):
        assert NO_FAULTS.is_faultless
        assert not FaultConfig(scream_miss_prob=0.1).is_faultless

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(scream_miss_prob=-0.1)


class TestStates:
    def test_states_are_distinct(self):
        values = [s.value for s in NodeState]
        assert len(set(values)) == len(values)

    def test_figure1_transitions_present(self):
        assert (NodeState.DORMANT, NodeState.CONTROL) in ALLOWED_TRANSITIONS
        assert (NodeState.ACTIVE, NodeState.ALLOCATED) in ALLOWED_TRANSITIONS
        assert (NodeState.ACTIVE, NodeState.TRIED) in ALLOWED_TRANSITIONS
        assert (NodeState.CONTROL, NodeState.COMPLETE) in ALLOWED_TRANSITIONS

    def test_illegal_transition_absent(self):
        assert (NodeState.COMPLETE, NodeState.ACTIVE) not in ALLOWED_TRANSITIONS


class TestStepTally:
    def test_add_scream_books_k_slots(self):
        tally = StepTally()
        tally.add_scream(5)
        tally.add_scream(5)
        assert tally.scream_calls == 2
        assert tally.scream_slots == 10

    def test_add_handshake_books_both_subslots(self):
        tally = StepTally()
        tally.add_handshake()
        assert tally.data_subslots == 1
        assert tally.ack_subslots == 1

    def test_total_steps(self):
        tally = StepTally()
        tally.add_scream(3)
        tally.add_handshake()
        tally.add_sync(2)
        assert tally.total_steps == 3 + 2 + 2

    def test_as_dict_roundtrip(self):
        tally = StepTally()
        tally.add_scream(2)
        clone = StepTally(**tally.as_dict())
        assert clone.as_dict() == tally.as_dict()
