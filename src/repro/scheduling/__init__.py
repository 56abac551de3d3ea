"""STDMA scheduling substrate: schedules, feasibility, centralized baselines.

Contains the schedule data model shared by all algorithms, the SINR
slot-admission test (the what-if kernel and the incremental arena), the
centralized GreedyPhysical algorithm of Brar et al. (MobiCom 2006) — the
baseline the paper compares against — and the worst-case serialized
schedule used as the normalization in the paper's schedule-length figures.
"""

from repro.scheduling.links import LinkSet, forest_link_set
from repro.scheduling.schedule import Schedule, Slot
from repro.scheduling.feasibility import SlotArena, feasible_alone
from repro.scheduling.orderings import (
    order_by_id,
    order_by_hashed_id,
    order_by_demand,
    order_by_length,
    order_by_interference_number,
    EDGE_ORDERINGS,
)
from repro.scheduling.greedy_physical import greedy_physical
from repro.scheduling.greedy_rate import greedy_rate, standalone_rates
from repro.scheduling.linear import linear_schedule
from repro.scheduling.metrics import improvement_over_linear, verify_schedule
from repro.scheduling.optimal import (
    OptimalResult,
    enumerate_maximal_feasible_sets,
    optimal_schedule,
)

__all__ = [
    "LinkSet",
    "forest_link_set",
    "Schedule",
    "Slot",
    "SlotArena",
    "feasible_alone",
    "order_by_id",
    "order_by_hashed_id",
    "order_by_demand",
    "order_by_length",
    "order_by_interference_number",
    "EDGE_ORDERINGS",
    "greedy_physical",
    "greedy_rate",
    "standalone_rates",
    "linear_schedule",
    "improvement_over_linear",
    "verify_schedule",
    "OptimalResult",
    "enumerate_maximal_feasible_sets",
    "optimal_schedule",
]
