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

from dataclasses import replace

from repro.analysis.tables import TextTable
from repro.core.controlplane import ControlPlaneModel
from repro.core.fdd import fdd_on_network
from repro.experiments.admission import build_controller, session_config
from repro.experiments.common import (
    ADMISSION_KNEE_RATE,
    PAPER_PROTOCOL,
    SHARDED_GUARD_FACTOR,
    SHARDED_RADIUS_M,
    SHARDED_SHARDS,
    SHARDED_WORKERS,
    TRAFFIC_SLOT_SECONDS,
    ExperimentProfile,
    finish_obs,
    obs_for,
)
from repro.experiments.heavy_traffic import _generator, _grid_mesh
from repro.experiments.sharded import _grid_case, _secs
from repro.traffic import (
    EpochConfig,
    FlowWorkload,
    distributed_scheduler,
    plan_for_network,
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
VARIANTS = ("free", "priced")


def _variant_model(variant: str) -> ControlPlaneModel:
    # The free variant runs with an all-zero model (not control=None) so
    # the ledger still *counts* the messages the idealization was not
    # paying for — the "control msgs" column is what free really ignored.
    if variant == "priced":
        return ControlPlaneModel.default_priced()
    return ControlPlaneModel()


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
    _e8_rows(profile, table, obs)
    _e9_rows(profile, table, obs)
    _e10_rows(profile, table, obs)
    _price_scale_rows(profile, table, obs)
    finish_obs(obs)
    return table


def _add_row(table, headline, variant, point_label, point, trace, blocking="-"):
    epochs = max(trace.n_epochs_run, 1)
    # Sum over the epochs the run actually charged, so the air and message
    # columns describe the same population (the final epoch's observable
    # reports are booked past the last record and consumed by nothing).
    air_ms = (
        1e3 * sum(trace.ledger.seconds_for(r.epoch) for r in trace.records) / epochs
        if trace.ledger
        else 0.0
    )
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
        _secs(trace.scheduling_seconds),
        "yes" if point.stable else "NO",
    )


def _e8_rows(profile: ExperimentProfile, table: TextTable, obs=None) -> None:
    """Incremental rescheduling with priced patch distribution."""
    network, gateways, links = _grid_mesh(profile)
    rate = profile.controlplane_lambda
    base_config = EpochConfig(
        epoch_slots=profile.traffic_epoch_slots,
        n_epochs=profile.traffic_epochs,
        slot_seconds=TRAFFIC_SLOT_SECONDS,
        divergence_factor=4.0,
    )
    amortized: dict[tuple[str, str], float] = {}
    for policy in ("always", "patch"):
        config = replace(base_config, reschedule_policy=policy)
        for variant in VARIANTS:
            scheduler = distributed_scheduler(
                network,
                fdd_on_network,
                config=PAPER_PROTOCOL,
                seed=spawn(profile.seed, "traffic-fdd"),
            )
            trace = run_epochs(
                links,
                _generator(profile, network, gateways, rate, 0),
                scheduler,
                config,
                model=network.model,
                control=_variant_model(variant),
                obs=obs,
            )
            point = summarize_trace(trace, rate)
            amortized[(policy, variant)] = point.overhead_slots
            _add_row(
                table, "E8 incremental", variant, f"{policy} λ={rate:g}", point, trace
            )
    # The surviving advantage: always-reschedule overhead over the patch
    # policy's, per variant (how much of the E8 amortization pricing eats).
    for variant in VARIANTS:
        ratio = amortized[("always", variant)] / max(
            amortized[("patch", variant)], 1e-9
        )
        table.add_row(
            "E8 incremental",
            variant,
            "always/patch advantage",
            "-",
            f"{ratio:.1f}x",
            "-",
            "-",
            "-",
            "-",
            "-",
            "-",
        )


def _price_scale_rows(profile: ExperimentProfile, table: TextTable, obs=None) -> None:
    """Price-sensitivity sweep: where does the E8 amortization win flip?

    The honest default prices leave patching's advantage nearly intact, but
    the advantage cannot be unconditional: every patch delta pays
    ``patch_bytes x forest depth`` in air, so at *some* price the announced
    repairs cost more slots than the re-runs they avoid.  This sweep scales
    every message class by ``profile.controlplane_scale_factors`` (via
    :meth:`ControlPlaneModel.scaled` — e.g. 64x the 8-byte default models
    a ~0.5 kB signed/authenticated patch bundle) and reports the
    always/patch amortized-overhead ratio at each price point, plus the
    first factor — if the sweep reaches it — where the ratio drops below
    1 (patching now *costs* overhead).  Always-reschedule books no patch
    messages, so its overhead is price-invariant and each ratio isolates
    the patch channel's cost.
    """
    network, gateways, links = _grid_mesh(profile)
    rate = profile.controlplane_lambda
    base_config = EpochConfig(
        epoch_slots=profile.traffic_epoch_slots,
        n_epochs=profile.traffic_epochs,
        slot_seconds=TRAFFIC_SLOT_SECONDS,
        divergence_factor=4.0,
    )
    amortized: dict[tuple[str, float], float] = {}
    for policy in ("always", "patch"):
        config = replace(base_config, reschedule_policy=policy)
        for factor in profile.controlplane_scale_factors:
            scheduler = distributed_scheduler(
                network,
                fdd_on_network,
                config=PAPER_PROTOCOL,
                seed=spawn(profile.seed, "traffic-fdd"),
            )
            trace = run_epochs(
                links,
                _generator(profile, network, gateways, rate, 0),
                scheduler,
                config,
                model=network.model,
                control=ControlPlaneModel.default_priced().scaled(factor),
                obs=obs,
            )
            point = summarize_trace(trace, rate)
            amortized[(policy, factor)] = point.overhead_slots
            _add_row(
                table,
                "E8 price scale",
                f"{factor:g}x",
                f"{policy} λ={rate:g}",
                point,
                trace,
            )
    flip: float | None = None
    for factor in sorted(profile.controlplane_scale_factors):
        ratio = amortized[("always", factor)] / max(
            amortized[("patch", factor)], 1e-9
        )
        table.add_row(
            "E8 price scale",
            f"{factor:g}x",
            "always/patch advantage",
            "-",
            f"{ratio:.1f}x",
            "-",
            "-",
            "-",
            "-",
            "-",
            "-",
        )
        if flip is None and ratio < 1.0:
            flip = factor
    table.add_row(
        "E8 price scale",
        "flip",
        "advantage < 1 at",
        "-",
        "none swept" if flip is None else f"{flip:g}x prices",
        "-",
        "-",
        "-",
        "-",
        "-",
        "-",
    )


def _e9_rows(profile: ExperimentProfile, table: TextTable, obs=None) -> None:
    """Sharded reconciliation with priced boundary reports and rounds."""
    rows, cols = profile.sharded_grids[0]
    lams = profile.sharded_lambdas[0]
    rate = sorted(lams)[len(lams) // 2]
    network, gateways, links, protocol_cfg = _grid_case(profile, rows, cols)
    plan = plan_for_network(
        links,
        network,
        n_shards=SHARDED_SHARDS,
        interference_radius_m=SHARDED_RADIUS_M,
        guard_factor=SHARDED_GUARD_FACTOR,
    )
    config = EpochConfig(
        epoch_slots=profile.traffic_epoch_slots,
        n_epochs=profile.sharded_epochs,
        slot_seconds=TRAFFIC_SLOT_SECONDS,
        divergence_factor=4.0,
    )
    for variant in VARIANTS:
        factory = sharded_distributed_factory(
            network,
            fdd_on_network,
            config=protocol_cfg,
            seed=spawn(profile.seed, "sharded-fdd", rows),
        )
        generator = _generator(profile, network, gateways, rate, 0)
        trace = run_epochs_sharded(
            plan,
            generator,
            factory,
            network.model,
            config,
            max_workers=SHARDED_WORKERS,
            control=_variant_model(variant),
            obs=obs,
        )
        point = summarize_trace(trace, rate)
        _add_row(
            table,
            "E9 sharded",
            variant,
            f"{rows}x{cols}/{plan.n_shards} shards λ={rate:g}",
            point,
            trace,
        )


def _e10_rows(profile: ExperimentProfile, table: TextTable, obs=None) -> None:
    """Knee-tracker admission with priced signaling and observables."""
    network, gateways, links = _grid_mesh(profile)
    factor = CONTROLPLANE_ADMISSION_FACTOR
    rate = ADMISSION_KNEE_RATE * factor
    n_sources = links.n_links
    config = EpochConfig(
        epoch_slots=profile.traffic_epoch_slots,
        n_epochs=profile.admission_epochs,
        slot_seconds=TRAFFIC_SLOT_SECONDS,
        divergence_factor=8.0,
        demand_cap=max(1, profile.traffic_epoch_slots // 10),
    )
    for variant in VARIANTS:
        scheduler = distributed_scheduler(
            network,
            fdd_on_network,
            config=PAPER_PROTOCOL,
            seed=spawn(profile.seed, "traffic-fdd"),
        )
        workload = FlowWorkload(
            links,
            session_config(profile, rate, n_sources),
            controller=build_controller("knee-tracker", n_sources),
            seed=spawn(profile.seed, "admission-wl"),
        )
        trace = run_epochs(
            links,
            workload,
            scheduler,
            config,
            on_epoch=workload.observe,
            control=_variant_model(variant),
            obs=obs,
        )
        point = summarize_trace(trace, rate, session=workload)
        _add_row(
            table,
            "E10 admission",
            variant,
            f"knee-tracker {factor:g}x knee",
            point,
            trace,
            blocking=f"{point.blocking_probability:.0%}",
        )
