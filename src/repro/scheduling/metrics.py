"""Schedule quality metrics and full verification.

``improvement_over_linear`` is the y-axis of the paper's schedule-length
figures; :func:`verify_schedule` is the independent checker used by tests
and by the failure-injection experiments to detect infeasible schedules
produced under degraded conditions (K < ID, detection errors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.interference import PhysicalInterferenceModel
from repro.scheduling.feasibility import infeasible_slots
from repro.scheduling.schedule import Schedule


def improvement_over_linear(schedule: Schedule) -> float:
    """Percentage schedule-length improvement over the serialized schedule.

    ``100 * (TD - T) / TD`` where ``TD`` is the total demand and ``T`` the
    schedule length.  0 means no spatial reuse at all; values approaching
    100 mean massive reuse.
    """
    td = schedule.link_set.total_demand
    if td == 0:
        return 0.0
    return 100.0 * (td - schedule.length) / td


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of full schedule verification."""

    feasible: bool
    demand_satisfied: bool
    infeasible_slots: tuple[int, ...]
    shortfall_links: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.feasible and self.demand_satisfied

    def __str__(self) -> str:
        if self.ok:
            return "schedule OK (feasible, demand satisfied)"
        parts = []
        if not self.feasible:
            parts.append(f"infeasible slots: {list(self.infeasible_slots)}")
        if not self.demand_satisfied:
            parts.append(f"links with unmet demand: {list(self.shortfall_links)}")
        return "schedule INVALID — " + "; ".join(parts)


def verify_schedule(
    schedule: Schedule, model: PhysicalInterferenceModel
) -> VerificationReport:
    """Independently verify feasibility of every slot and demand satisfaction.

    Recomputes every slot's SINRs from the exact model (no incremental
    state), so it catches any bookkeeping bug in the schedulers as well as
    genuine protocol failures under degraded SCREAM conditions.
    """
    bad_slots = set(infeasible_slots(schedule, model))
    for t in range(schedule.length):
        snd, rcv = schedule.slot_members(t)
        if np.unique(np.concatenate([snd, rcv])).size != snd.size + rcv.size:
            # A node appearing twice in a slot (two roles) cannot happen for
            # half-duplex radios; flag the slot.
            bad_slots.add(t)

    allocations = schedule.allocations()
    shortfall = np.flatnonzero(allocations < schedule.link_set.demand)
    return VerificationReport(
        feasible=not bad_slots,
        demand_satisfied=shortfall.size == 0,
        infeasible_slots=tuple(sorted(bad_slots)),
        shortfall_links=tuple(int(k) for k in shortfall),
    )
