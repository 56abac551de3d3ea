"""Exact-physics audit of the schedules an engine served.

An *operation* is one scheduled transmission: a (link, slot) membership of
a schedule handed to the serving stage.  It *fails* if it does not decode —
data and ACK, no noise budget — when all members of its slot transmit.  The
check is exact and needs no (n, n) matrix: only a slot's own members
transmit in it, so the received-power matrix over just that slot's
head/tail nodes carries every interference term the dense model would sum.
Runs after the engine, outside every timed region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import PhysicalInterferenceModel
from repro.phy.gain import received_power_matrix


@dataclass
class SlotVerdict:
    attempted: int
    failed: int
    margin_min: float  # min over members of min(data, ACK) SINR / beta


def audit_slot(network, heads: np.ndarray, tails: np.ndarray) -> SlotVerdict:
    """Do the links ``heads[k] -> tails[k]`` decode when sent together?"""
    nodes, local = np.unique(np.concatenate([heads, tails]), return_inverse=True)
    power = received_power_matrix(
        network.positions[nodes], network.tx_power_mw[nodes], network.propagation
    )
    model = PhysicalInterferenceModel(power, network.radio)
    senders, receivers = local[: heads.size], local[heads.size :]
    decodes = model.feasible_mask(senders, receivers)
    data, ack = model.link_sinrs(senders, receivers)
    margin = float(np.minimum(data, ack).min() / network.radio.beta)
    return SlotVerdict(int(heads.size), int((~decodes).sum()), margin)


@dataclass
class AuditReport:
    attempted: list[int]  # per epoch
    failed: list[int]  # per epoch
    slots: int = 0
    infeasible_slots: int = 0
    margin_min: float = float("inf")


def audit_run(network, links, handed, n_epochs: int) -> AuditReport:
    """Audit every ``(epoch, schedule)`` in ``handed``.

    Cached and patched schedules repeat most slots from epoch to epoch; a
    slot with the same members in the same order is the same computation,
    so it is checked once and counted every time it was served.
    """
    report = AuditReport([0] * n_epochs, [0] * n_epochs)
    verdicts: dict[tuple, SlotVerdict] = {}
    for epoch, schedule in handed:
        for slot in schedule.slots:
            if not slot.links:
                continue
            members = tuple(slot.links)
            verdict = verdicts.get(members)
            if verdict is None:
                idx = slot.as_array()
                verdict = verdicts[members] = audit_slot(
                    network, links.heads[idx], links.tails[idx]
                )
            report.attempted[epoch] += verdict.attempted
            report.failed[epoch] += verdict.failed
            report.slots += 1
            report.infeasible_slots += 1 if verdict.failed else 0
            report.margin_min = min(report.margin_min, verdict.margin_min)
    return report
