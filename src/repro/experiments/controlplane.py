"""E11 — in-band control-plane pricing: how much of each win survives.

E8–E10 measured three headline wins whose coordination traffic was free:
incremental patching assumed a free local controller (DESIGN.md §7),
sharded reconciliation a free central post-pass (§8), and admission
signaling/observable collection cost nothing (§9).  E11 re-runs each
headline twice through the shared :mod:`repro.core.controlplane` pricing —
once with every message class at 0 bytes (the retired idealizations,
exactly reproducing the historical engines) and once at the honest default
prices — and reports the delta:

* **E8 revisit** — the FDD closed loop on the 8×8 grid under
  ``always`` vs ``patch``: patch distribution now pays one delta message
  per membership edit, relayed down the routing forest.  The headline
  question: does the amortized-overhead cut survive when the "free local
  repair" has to announce itself in-band?  (The bench asserts it does, at
  ≥ 2× below always-reschedule.)
* **E9 revisit** — the sharded engine on the first profiled multi-region
  grid: boundary links report to the reconciler and every serialized
  membership is announced, charged on the critical path.
* **E10 revisit** — the knee tracker at an overload past the knee:
  session admit/deny and throttle signaling plus per-epoch observable
  collection (one report per backlogged link) now ride the epoch's air
  before the controller sees anything.

Every run in the table uses the same arrival sample paths in both
variants (common random numbers), so the priced-minus-free deltas are
control-plane cost, not workload luck.
"""

from __future__ import annotations

from repro.analysis.tables import TextTable
from repro.core.controlplane import ControlPlaneModel
from repro.core.fdd import fdd_on_network
from repro.experiments.admission import admission_point
from repro.experiments.common import (
    ADMISSION_KNEE_RATE,
    ExperimentProfile,
    epoch_config,
    finish_obs,
    grid_mesh,
    obs_for,
    paper_fdd,
    poisson_arrivals,
    seconds_cell,
)
from repro.experiments.sharded import backbone_protocol, sharded_plan
from repro.traffic import (
    run_epochs,
    run_epochs_sharded,
    sharded_distributed_factory,
    summarize_trace,
)
from repro.util.rng import spawn

#: Overload of the E10 revisit, as a multiple of the E7 knee.
CONTROLPLANE_ADMISSION_FACTOR = 2.0

#: The two variants every headline is measured under: the retired free
#: idealization (all prices zero — bit-identical to the historical
#: engines) and the honest prices of :meth:`ControlPlaneModel.default_priced`.
#: The free variant runs with an all-zero model (not ``control=None``) so
#: the ledger still *counts* the messages the idealization was not paying
#: for — the "control msgs" column is what free really ignored.
VARIANTS = (
    ("free", ControlPlaneModel()),
    ("priced", ControlPlaneModel.default_priced()),
)


def controlplane_experiment(profile: ExperimentProfile) -> TextTable:
    """E11: the E8/E9/E10 headlines, free idealization vs honest pricing."""
    priced = ControlPlaneModel.default_priced()
    table = TextTable(
        [
            "headline",
            "variant",
            "operating point",
            "goodput (pkt/slot)",
            "overhead (slots/epoch)",
            "control (slots/epoch)",
            "control air (ms/epoch)",
            "control msgs (/epoch)",
            "blocking (%)",
            "compute (s)",
            "stable",
        ],
        title="In-band control-plane pricing — the E8/E9/E10 headlines re-measured "
        "with patch deltas, boundary/observable reports, reconciliation rounds, "
        "and session signaling charged to the data air "
        f"(patch={priced.patch_bytes:g}B, "
        f"report={priced.report_bytes:g}B, "
        f"reconcile={priced.reconcile_bytes:g}B, "
        f"signal={priced.signal_bytes:g}B per message)",
    )

    obs = obs_for(profile, "controlplane")
    _e8_rows(profile, table, "E8 incremental", VARIANTS, obs)
    _e9_rows(profile, table, obs)
    _e10_rows(profile, table, obs)
    # Price sensitivity: where does the E8 amortization win flip?  Every
    # patch delta pays ``patch_bytes x forest depth`` in air, so at *some*
    # price the announced repairs cost more slots than the re-runs they
    # avoid.  Each message class is scaled by the profile's factors (64x
    # the 8-byte default models a ~0.5 kB signed patch bundle); always-
    # reschedule books no patch messages, so its overhead is price-
    # invariant and each ratio isolates the patch channel's cost.
    factors = sorted(profile.controlplane_scale_factors)
    ratios = _e8_rows(
        profile,
        table,
        "E8 price scale",
        [(f"{f:g}x", ControlPlaneModel.default_priced().scaled(f)) for f in factors],
        obs,
    )
    flip = next((f for f, ratio in zip(factors, ratios) if ratio < 1.0), None)
    table.add_row(
        "E8 price scale",
        "flip",
        "advantage < 1 at",
        "-",
        "none swept" if flip is None else f"{flip:g}x prices",
        *["-"] * 6,
    )
    finish_obs(obs)
    return table


def _add_row(table, headline, variant, point_label, point, trace, blocking="-"):
    epochs = max(trace.n_epochs_run, 1)
    # Sum over the epochs the run actually charged, so the air and message
    # columns describe the same population (the final epoch's observable
    # reports are booked past the last record and consumed by nothing).
    air_ms = 1e3 * sum(trace.ledger.seconds_for(r.epoch) for r in trace.records) / epochs
    table.add_row(
        headline,
        variant,
        point_label,
        f"{point.throughput:.3f}",
        f"{point.overhead_slots:.1f}",
        f"{point.control_slots:.1f}",
        f"{air_ms:.2f}",
        f"{point.control_messages:.0f}",
        blocking,
        seconds_cell(trace.scheduling_seconds),
        "yes" if point.stable else "NO",
    )


def _e8_rows(
    profile: ExperimentProfile, table: TextTable, headline: str, variants, obs=None
) -> list[float]:
    """FDD on the 8x8 grid under ``always`` and ``patch`` at the E8-revisit
    rate, once per ``(label, ControlPlaneModel)`` variant, then each
    variant's always/patch amortized-overhead ratio (returned too)."""
    network, gateways, links = grid_mesh(profile, 8, 8, "traffic-forest")
    rate = profile.controlplane_lambda
    amortized: dict[tuple[str, str], float] = {}
    for policy in ("always", "patch"):
        config = epoch_config(profile, profile.traffic_epochs, reschedule_policy=policy)
        for label, control in variants:
            trace = run_epochs(
                links,
                poisson_arrivals(profile, network, gateways, rate),
                paper_fdd(profile, network),
                config,
                model=network.model,
                control=control,
                obs=obs,
            )
            point = summarize_trace(trace, rate)
            amortized[(policy, label)] = point.overhead_slots
            _add_row(table, headline, label, f"{policy} λ={rate:g}", point, trace)
    ratios = []
    for label, _ in variants:
        ratio = amortized[("always", label)] / max(amortized[("patch", label)], 1e-9)
        table.add_row(
            headline, label, "always/patch advantage", "-", f"{ratio:.1f}x", *["-"] * 6
        )
        ratios.append(ratio)
    return ratios


def _e9_rows(profile: ExperimentProfile, table: TextTable, obs=None) -> None:
    """Sharded reconciliation with priced boundary reports and rounds."""
    rows, cols = profile.sharded_grids[0]
    lams = profile.sharded_lambdas[0]
    rate = sorted(lams)[len(lams) // 2]
    network, gateways, links = grid_mesh(profile, rows, cols, "sharded-forest", rows)
    plan = sharded_plan(links, network)
    config = epoch_config(profile, profile.sharded_epochs)
    protocol_cfg = backbone_protocol(network)
    for label, control in VARIANTS:
        factory = sharded_distributed_factory(
            network,
            fdd_on_network,
            config=protocol_cfg,
            seed=spawn(profile.seed, "sharded-fdd", rows),
        )
        trace = run_epochs_sharded(
            plan,
            poisson_arrivals(profile, network, gateways, rate),
            factory,
            network.model,
            config,
            control=control,
            obs=obs,
        )
        point = summarize_trace(trace, rate)
        _add_row(
            table,
            "E9 sharded",
            label,
            f"{rows}x{cols}/{plan.n_shards} shards λ={rate:g}",
            point,
            trace,
        )


def _e10_rows(profile: ExperimentProfile, table: TextTable, obs=None) -> None:
    """Knee-tracker admission with priced signaling and observables."""
    network, _, links = grid_mesh(profile, 8, 8, "traffic-forest")
    factor = CONTROLPLANE_ADMISSION_FACTOR
    rate = ADMISSION_KNEE_RATE * factor
    for label, control in VARIANTS:
        point, trace = admission_point(
            profile, network, links, "knee-tracker", rate, control=control, obs=obs
        )
        _add_row(
            table,
            "E10 admission",
            label,
            f"knee-tracker {factor:g}x knee",
            point,
            trace,
            blocking=f"{point.blocking_probability:.0%}",
        )
