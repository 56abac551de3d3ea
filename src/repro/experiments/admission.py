"""E10 — online admission control around the measured stability knee.

E7 located the FDD closed loop's capacity knee on the paper's 8x8 planned
grid (λ* = 0.019 pkt/node/slot, overhead-priced); E10 offers *session*
load well past it — 1.5x to 3x — and compares what each admission
controller (:mod:`repro.traffic.admission`) makes of the overload.  The
workload is the flow-session layer of :mod:`repro.traffic.flows`: Poisson
session churn, heavy-tailed transfer sizes, a CBR/elastic class mix, and
per-flow token-bucket policing, calibrated so the long-run offered rate
equals the swept multiple of the knee.

Per operating point the table reports the user-facing SLA triple the
per-node sweeps of E7–E9 could not: session blocking probability,
admitted goodput, and the p99 over *per-flow* mean delays — plus the
backlog-slope stability verdict.  The expected headlines:

* ``none`` (differential baseline) diverges at every offered load past
  the knee — exactly the uncontrolled engine;
* ``knee-tracker`` — which only sees observable signals (arrivals,
  backlog, delivered counts) and is never told λ* — holds the backlog
  slope near zero at 1.5–3x overload while keeping admitted goodput at or
  above the uncontrolled loop's knee throughput, shedding the excess as
  session blocking instead of unbounded queueing;
* ``static-cap`` (told the knee) is the ceiling the tracker chases;
* ``backpressure`` throttles spatially — flows crossing hot links — and
  sits between ``none`` and the rate-cap controllers on bursty overloads.
"""

from __future__ import annotations

import math

from repro.analysis.tables import TextTable
from repro.experiments.common import (
    ADMISSION_KNEE_RATE,
    TRAFFIC_DENSITY,
    ExperimentProfile,
    epoch_config,
    finish_obs,
    grid_mesh,
    obs_for,
    paper_fdd,
)
from repro.traffic import (
    EpochConfig,
    FlowConfig,
    FlowWorkload,
    StabilityMetrics,
    TrafficTrace,
    make_controller,
    run_epochs,
    summarize_trace,
)
from repro.traffic.flows import CBR_FRACTION
from repro.util.rng import spawn

#: The E10 flow-session population shape: elastic sessions' per-slot rate
#: and the Pareto size cap as a multiple of the mean (``MEAN_FLOW_SIZE``;
#: sizes, CBR share and CBR rate are ``repro.traffic.flows``' constants).
ADMISSION_ELASTIC_RATE = 0.08
ADMISSION_MAX_SIZE_FACTOR = 10.0


def session_config(profile: ExperimentProfile, rate: float, n_sources: int) -> FlowConfig:
    """The E10 session population offering ``rate`` pkt/node/slot."""
    return FlowConfig.for_offered_rate(
        rate,
        n_sources,
        profile.traffic_epoch_slots,
        elastic_rate=ADMISSION_ELASTIC_RATE,
        max_size_factor=ADMISSION_MAX_SIZE_FACTOR,
    )


def build_controller(name: str, n_sources: int):
    """Instantiate a controller by name, sizing the static cap from the
    E7-measured knee (the one controller that is *told* λ*)."""
    if name == "static-cap":
        return make_controller(name, cap=ADMISSION_KNEE_RATE * n_sources)
    return make_controller(name)


def admission_config(profile: ExperimentProfile) -> EpochConfig:
    """The admission runs' epoch loop (E10, E11's E10 revisit).

    The early-stop guard is looser than E7's (8x vs 4x the mean epoch
    arrivals): a controller that caps *at* the estimated knee holds the
    pre-control backlog as a standing, zero-slope queue — bounded, and
    exactly what the stability verdict should judge, not the guard.  The
    demand cap bounds the backlog snapshot the scheduler sees in overload:
    FDD's air time scales with the scheduled demand vector, and cyclic
    replay re-serves a capped hot link every schedule cycle anyway, so the
    cap trims protocol overhead in the overloaded regime without costing
    served capacity (per-link backlogs at stable operating points sit far
    below it).
    """
    return epoch_config(
        profile,
        profile.admission_epochs,
        divergence_factor=8.0,
        demand_cap=max(1, profile.traffic_epoch_slots // 10),
    )


def admission_point(
    profile: ExperimentProfile,
    network,
    links,
    controller_name: str,
    rate: float,
    control=None,
    obs=None,
) -> tuple[StabilityMetrics, TrafficTrace]:
    """Run one (controller, offered-rate) operating point of sessions
    under the overhead-priced FDD scheduler, its control priced by
    ``control``; return its metrics (session fields populated) and trace.

    A fresh scheduler per point on E7's derivation path: identical protocol
    behaviour, and every controller faces the same arrival sample path
    (common random numbers — SLA differences are controller policy, not
    luck).
    """
    n_sources = links.n_links
    workload = FlowWorkload(
        links,
        session_config(profile, rate, n_sources),
        controller=build_controller(controller_name, n_sources),
        seed=spawn(profile.seed, "admission-wl"),
    )
    trace = run_epochs(
        links,
        workload,
        paper_fdd(profile, network),
        admission_config(profile),
        on_epoch=workload.observe,
        control=control,
        obs=obs,
    )
    return summarize_trace(trace, rate, session=workload), trace


def admission_experiment(profile: ExperimentProfile) -> TextTable:
    """E10: admission controllers vs offered loads past the FDD knee."""
    network, _, links = grid_mesh(profile, 8, 8, "traffic-forest")
    obs = obs_for(profile, "admission")
    knee = ADMISSION_KNEE_RATE

    table = TextTable(
        [
            "controller",
            "offered (x knee)",
            "lambda (pkt/node/slot)",
            "goodput (pkt/slot)",
            "blocking (%)",
            "flow p99 delay (slots)",
            "mean delay (slots)",
            "backlog growth (pkt/epoch)",
            "overhead (slots/epoch)",
            "stable",
        ],
        title="Admission control at the stability knee — FDD (overhead-priced) "
        f"on the 8x8 planned grid, density {TRAFFIC_DENSITY:g}/km^2, "
        f"flow sessions (Poisson churn, Pareto sizes, "
        f"{CBR_FRACTION:.0%} CBR), "
        f"knee lambda*={knee:g} from E7, "
        f"T={profile.traffic_epoch_slots} slots/epoch, "
        f"{profile.admission_epochs} epochs",
    )

    for name in profile.admission_controllers:
        for factor in profile.admission_load_factors:
            point, _ = admission_point(
                profile, network, links, name, knee * factor, obs=obs
            )
            p99 = point.flow_p99_delay
            table.add_row(
                name,
                f"{factor:g}x",
                f"{point.offered_rate:g}",
                f"{point.admitted_goodput:.3f}",
                f"{point.blocking_probability:.0%}",
                "-" if math.isnan(p99) else f"{p99:.0f}",
                f"{point.mean_delay:.1f}",
                f"{point.backlog_slope:+.1f}",
                f"{point.overhead_slots:.1f}",
                "yes" if point.stable else "NO",
            )
    finish_obs(obs)
    return table
