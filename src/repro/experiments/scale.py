"""E13 — sparse interference at scale: the nodes-vs-RSS-vs-wall sweep.

The dense pipeline materializes an ``(n, n)`` received-power matrix — 800 MB
of float64 at 10^4 nodes, 80 GB at 10^5 — before a single slot is scheduled.
The sparse backend (:mod:`repro.phy.sparse`) stores only the pairs within the
interference cutoff radius (found by the :class:`~repro.phy.spatial.GridIndex`
in O(n) expected time) and folds the truncated far field into a per-node
noise-floor budget, so its footprint and build time scale with ``n``, not
``n^2``.

This experiment measures that trade end to end: for each grid side in
``profile.scale_grid_sides`` it deploys a planned grid at one lattice step
(:data:`SCALE_LATTICE_STEP_M`) and runs the *same* closed epoch engine
(arrivals -> greedy schedule -> serve, :func:`repro.traffic.epoch.run_epochs`
with streaming record retention) on both backends — dense only up to
``profile.scale_dense_max_nodes`` — and reports, per point: communication
edges per node and routing-forest depth (the mesh the point measures),
nonzeros stored, setup wall (gain model + communication graph + routing
forest), engine wall, scheduling wall, *end-to-end per-epoch
wall* ((setup + engine) / epochs — the number a deployment planner re-running
the pipeline each reconfiguration actually waits), peak RSS, schedule length,
packets delivered, and the exact-physics verdict on what was played.

Why one step and not one density: ``grid_positions`` spans the region, so
at fixed density the step is ``31.62 m * side / (side - 1)``, and from
side ~165 on its diagonal (``sqrt(2) * step``) falls inside the floored
communication range (~45.0 m): the comm graph doubles its degree, the
forest halves its depth, and the large points would measure a different
mesh.  Each side's density is derived from the step instead
(:func:`scale_density_per_km2`); side 100, the ``sparse_10k`` ledger
mesh, keeps ``SCALE_DENSITY_PER_KM2`` exactly.

Every point runs in its own spawned subprocess so its peak RSS (the child's
own ``VmHWM``) is that point's genuine high-water mark (the parent's peak
would be contaminated by whichever earlier point was largest); a do-nothing
child calibrates the interpreter + import baseline that is subtracted out.

Honesty note on schedule length: each backend builds its forest from its own
communication graph and schedules under its own oracle.  At a finite cutoff
the sparse model makes transmitters beyond the cutoff *exactly* invisible
while the packing floor charges only the continuum far field, so the greedy
packer's first answer exploits cutoff-spaced concurrency the exact model
vetoes.  ``greedy_physical`` no longer emits that answer: on a truncated
matrix it verifies every slot with the exact per-slot kernel
(:mod:`repro.phy.truth`), peels the members that do not decode and re-packs
them into fresh slots until the schedule is truth-feasible.  The ``slots``
column is the length of that *repaired* schedule — longer than the packer's
first answer, far shorter than the dense greedy's (whose forest also differs)
— and ``repaired tx`` is how many memberships the repair moved: the measured
error of the far-field floor.  ``truth violations`` is an independent
re-check, by this harness, of every schedule a backend handed to the serving
stage; a membership that fails it is struck before it is served, so
``delivered`` counts decodable packets only.  It reads 0 on every row
(DESIGN.md §13).  At ``cutoff=inf`` the sparse backend is bit-identical to
dense; the differential suite pins that, this sweep prices the finite case.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from repro.analysis.tables import TextTable
from repro.experiments.common import ExperimentProfile, finish_obs, obs_for
from repro.routing import build_routing_forest, planned_gateways
from repro.routing.forest import build_routing_forest_csr
from repro.scheduling.links import forest_link_set
from repro.phy import truth
from repro.phy.sparse import sparse_gain_model
from repro.topology.commgraph import communication_csr
from repro.topology.network import grid_network
from repro.topology.regions import side_for_density
from repro.traffic import (
    EpochConfig,
    PoissonArrivals,
    centralized_scheduler,
    run_epochs,
)
from repro.util.rng import spawn

#: Deployment density (nodes/km^2) at side 100, epochs of the served
#: workload, offered arrivals (packets per node per *epoch*), and gateway
#: spacing (one gateway per ``stride x stride`` block of the grid) of every
#: sweep point.
SCALE_DENSITY_PER_KM2 = 1000.0
SCALE_EPOCHS = 2
SCALE_ARRIVAL_RATE = 1.0
SCALE_GATEWAY_STRIDE = 10

#: Lattice step (m) of every sweep point: side 100's at
#: ``SCALE_DENSITY_PER_KM2`` (31.94 m), whose diagonal stays outside the
#: floored communication range.
SCALE_LATTICE_STEP_M = side_for_density(100 * 100, SCALE_DENSITY_PER_KM2) / 99


def scale_density_per_km2(side: int) -> float:
    """The density at which ``grid_network``'s ``side x side`` lattice (its
    region spans ``side - 1`` steps) has the step ``SCALE_LATTICE_STEP_M``."""
    return (1000.0 / SCALE_LATTICE_STEP_M * side / (side - 1)) ** 2


def _gateway_count(side: int) -> int:
    """One gateway per ``stride x stride`` block, at least one."""
    return max(1, side // SCALE_GATEWAY_STRIDE) ** 2


def _truth_checked(scheduler, network, tally: dict):
    """``scheduler``, with every schedule it answers re-checked under the
    exact model and its undecodable memberships struck before they are
    served.  ``tally`` collects the violations, the scheduler's own repair
    count, and the wall the check took (not the scheduler's to pay)."""
    geometry = truth.Geometry(
        network.positions, network.tx_power_mw, network.propagation
    )
    noise, beta = network.radio.noise_mw, network.radio.beta

    def schedule(links, epoch):
        planned = scheduler(links, epoch)
        t0 = time.perf_counter()
        slots = planned.schedule.slots
        report = truth.check_slots(
            geometry,
            (planned.schedule.slot_members(t) for t in range(len(slots))),
            noise,
            beta,
        )
        if report.violations:
            tally["violations"] += report.violations
            ends = np.cumsum([len(slot) for slot in slots])
            for slot, decodes in zip(slots, np.split(report.margins >= 1.0, ends)):
                slot.links = slot.as_array()[decodes].tolist()
        if planned.schedule.truth is not None:
            tally["repaired"] += planned.schedule.truth.repaired_tx
        tally["check_s"] += time.perf_counter() - t0
        return planned

    return schedule


def _run_point(side: int, backend: str, profile: ExperimentProfile, obs=None) -> dict:
    """Deploy, build the ``backend`` pipeline, and serve the epoch workload.

    Returns the raw measurement dict (timings in seconds; ``rss_kib`` is
    filled in by the subprocess wrapper, not here).  Each backend owns its
    *whole* pipeline — communication graph and routing forest included —
    because the sparse model's far-field floor tightens the standalone
    feasibility screen (links the floorless dense graph keeps can be
    infeasible under the floored oracle, and the scheduler rejects links
    that cannot decode even alone).
    """
    network = grid_network(side, side, density_per_km2=scale_density_per_km2(side))
    n = network.n_nodes
    gateways = planned_gateways(side, side, _gateway_count(side))
    forest_rng = spawn(profile.seed, "scale-forest", side)

    t0 = time.perf_counter()
    if backend == "sparse":
        sgm = sparse_gain_model(
            network.positions, network.tx_power_mw, network.propagation, network.radio
        )
        model = sgm.interference_model(network.radio)
        indptr, indices = communication_csr(
            sgm.power,
            network.radio.noise_mw,
            network.radio.beta,
            budget_mw=sgm.floor_mw,
        )
        forest = build_routing_forest_csr(indptr, indices, gateways, rng=forest_rng)
        nnz = sgm.power.nnz
    elif backend == "dense":
        model = network.model  # materializes the (n, n) power matrix
        forest = build_routing_forest(network.comm_adj, gateways, rng=forest_rng)
        nnz = n * n
    else:
        raise ValueError(f"unknown backend {backend!r}")
    setup_s = time.perf_counter() - t0
    comm_edges = (indices.size if backend == "sparse" else int(network.comm_adj.sum())) // 2

    links = forest_link_set(forest, np.zeros(n, dtype=np.int64))
    generator = PoissonArrivals(
        n,
        SCALE_ARRIVAL_RATE / profile.scale_epoch_slots,
        gateways=gateways,
        seed=spawn(profile.seed, "scale-gen", side),
    )
    config = EpochConfig(
        epoch_slots=profile.scale_epoch_slots,
        n_epochs=SCALE_EPOCHS,
        demand_cap=1,
        retain_records="stream",
    )
    tally = {"violations": 0, "repaired": 0, "check_s": 0.0}
    scheduler = _truth_checked(centralized_scheduler(model), network, tally)
    t0 = time.perf_counter()
    trace = run_epochs(links, generator, scheduler, config, obs=obs)
    engine_s = time.perf_counter() - t0 - tally["check_s"]

    last = trace.last_record
    return {
        "side": side,
        "n": n,
        "backend": backend,
        "nnz": int(nnz),
        "edges_per_node": comm_edges / n,
        "forest_depth": int(forest.depth.max()),
        "setup_s": setup_s,
        "engine_s": engine_s,
        "sched_wall_s": trace.scheduling_wall_seconds - tally["check_s"],
        "epochs": trace.n_epochs_run,
        "schedule_len": last.schedule_length if last is not None else 0,
        "arrivals": trace.arrivals_total,
        "delivered": trace.delivered_total,
        "truth_violations": tally["violations"],
        "repaired_tx": tally["repaired"],
    }


def _peak_rss_kib() -> int:
    """This process's own peak RSS in KiB: ``VmHWM`` from /proc/self/status.

    Not ``ru_maxrss``: Linux carries the parent's high-water mark across
    fork + exec, so a spawned child of a 600 MiB parent reads 600 MiB from
    its first instruction.
    """
    with open("/proc/self/status") as status:
        return next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )


def _child_point(side, backend, profile, conn) -> None:  # pragma: no cover - subprocess
    """Subprocess body: run one point, ship the dict + peak RSS back."""
    try:
        result = _run_point(side, backend, profile)
        result["rss_kib"] = _peak_rss_kib()
        conn.send(result)
    except Exception as exc:
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
    finally:
        conn.close()


def _child_baseline(conn) -> None:  # pragma: no cover - subprocess
    """Subprocess body: peak RSS of interpreter + imports alone."""
    try:
        conn.send(_peak_rss_kib())
    finally:
        conn.close()


def _in_subprocess(target, args) -> object:
    """Run ``target(*args, conn)`` in a spawned child; return what it sends.

    ``spawn`` (not ``fork``) so the child is a fresh interpreter that holds
    none of the parent's pages.  Its ``ru_maxrss`` still starts at the
    parent's high-water mark — Linux keeps it across fork + exec — which is
    why the children report :func:`_peak_rss_kib` instead.
    """
    ctx = mp.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(*args, child_conn))
    proc.start()
    child_conn.close()
    try:
        result = parent_conn.recv()
    except EOFError:
        result = {"error": f"subprocess died with exitcode {proc.exitcode}"}
    finally:
        proc.join()
        parent_conn.close()
    if isinstance(result, dict) and "error" in result:
        raise RuntimeError(f"scale point subprocess failed: {result['error']}")
    return result


def epoch_wall_s(point: dict) -> float:
    """End-to-end per-epoch wall: (setup + engine) / epochs served.

    The assertion metric of the sweep — it charges the pipeline *build*
    (where the dense ``O(n^2)`` materialization lives) to the epochs it
    serves, exactly what re-running the pipeline per reconfiguration costs.
    """
    return (point["setup_s"] + point["engine_s"]) / max(point["epochs"], 1)


def scale_points(profile: ExperimentProfile) -> list[dict]:
    """Run the full sweep; return one raw measurement dict per point.

    Points run sequentially, each in its own spawned subprocess; ``rss_mib``
    is the child's peak RSS minus the measured interpreter/import baseline
    (clamped at 0).  When the profile has observability on, the smallest
    sparse point is re-run in-parent with the instrument attached so the
    sweep leaves a ``scale.jsonl`` run file like every other experiment —
    RSS and timings still come from the uninstrumented subprocess runs.
    """
    baseline_kib = _in_subprocess(_child_baseline, ())
    points: list[dict] = []
    for side in sorted(profile.scale_grid_sides):
        n = side * side
        backends = ["sparse"]
        if n <= profile.scale_dense_max_nodes:
            backends.append("dense")
        for backend in backends:
            point = _in_subprocess(_child_point, (side, backend, profile))
            point["rss_mib"] = max(point["rss_kib"] - baseline_kib, 0) / 1024.0
            points.append(point)

    obs = obs_for(profile, "scale")
    if obs is not None:
        smallest = min(p["side"] for p in points if p["backend"] == "sparse")
        _run_point(smallest, "sparse", profile, obs=obs)
        finish_obs(obs)
    return points


def scale_table(points: list[dict], profile: ExperimentProfile) -> TextTable:
    """Render the sweep, with a dense/sparse ratio row per two-backend size."""
    table = TextTable(
        [
            "nodes",
            "backend",
            "edges/node",
            "forest depth",
            "nnz",
            "setup (s)",
            "engine (s)",
            "sched wall (s)",
            "epoch wall (s)",
            "peak RSS (MiB)",
            "slots",
            "delivered",
            "truth violations",
            "repaired tx",
        ],
        title="Sparse interference at scale — grid deployments at lattice step "
        f"{SCALE_LATTICE_STEP_M:.2f} m ({SCALE_DENSITY_PER_KM2:g}/km^2 at 10^4 nodes), "
        f"{SCALE_EPOCHS} epochs x {profile.scale_epoch_slots} slots, "
        f"{SCALE_ARRIVAL_RATE:g} pkt/node/epoch, dense baseline up to "
        f"{profile.scale_dense_max_nodes} nodes "
        "(epoch wall = (setup + engine) / epochs)",
    )
    by_side: dict[int, dict[str, dict]] = {}
    for point in points:
        by_side.setdefault(point["side"], {})[point["backend"]] = point
    for side in sorted(by_side):
        group = by_side[side]
        for backend in ("dense", "sparse"):
            point = group.get(backend)
            if point is None:
                continue
            table.add_row(
                str(point["n"]),
                backend,
                f"{point['edges_per_node']:.2f}",
                str(point["forest_depth"]),
                str(point["nnz"]),
                f"{point['setup_s']:.2f}",
                f"{point['engine_s']:.2f}",
                f"{point['sched_wall_s']:.2f}",
                f"{epoch_wall_s(point):.2f}",
                f"{point['rss_mib']:.0f}",
                str(point["schedule_len"]),
                str(point["delivered"]),
                str(point["truth_violations"]),
                str(point["repaired_tx"]),
            )
        if "dense" in group and "sparse" in group:
            dense, sparse = group["dense"], group["sparse"]
            wall_ratio = epoch_wall_s(dense) / max(epoch_wall_s(sparse), 1e-9)
            rss_ratio = dense["rss_mib"] / max(sparse["rss_mib"], 1e-9)
            table.add_row(
                str(dense["n"]),
                "dense/sparse",
                "-",
                "-",
                f"{dense['nnz'] / max(sparse['nnz'], 1):.1f}x",
                "-",
                "-",
                "-",
                f"{wall_ratio:.1f}x",
                f"{rss_ratio:.1f}x",
                "-",
                "-",
                "-",
                "-",
            )
    return table


#: Columns masked in the persisted benchmark snapshot: wall-clock and RSS
#: cells (and the ratio rows that live in those columns) are host facts,
#: not science facts.
VOLATILE_COLUMNS = (
    "setup (s)",
    "engine (s)",
    "sched wall (s)",
    "epoch wall (s)",
    "peak RSS (MiB)",
)


def scale_experiment(profile: ExperimentProfile) -> TextTable:
    """E13: the sparse-vs-dense scaling sweep (see module docstring)."""
    return scale_table(scale_points(profile), profile)
