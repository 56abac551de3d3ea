"""Metric definitions and the estimators that turn process results into them.

Timing estimator: every repeat of a workload at one seed does bit-identical
work (the fingerprint check proves it).  A timing is the *measured-epoch
total in reference seconds* — each repeat's wall divided by the host
slowdown sampled while it ran (``calibrate.py``) — *averaged over repeats
without the fastest and the slowest*; epoch 0 of every repeat is warm-up.  The raw per-epoch floor across repeats
(the estimator this replaced: it spread 13-30 % between identical runs on
the host that measured it), medians, IQR and the tail are still reported,
as layer metrics.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    bound: float | None  # allowed worsening (share of the parent's median); end-to-end only
    how: str  # how it is measured; for layers, which end-to-end metric it should move


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "process start -> pipeline ready: import repro + deploy + power model + comm "
           "graph + forest + link set (+ shard plan); reference seconds, median over "
           "fresh processes"),
    Metric("decodable_tx_per_s", "tx/s", "higher", 0.25,
           "transmissions that pass the exact audit in measured epochs / measured epoch "
           "wall in reference seconds, tracing off"),
    Metric("decodable_share", "ratio", "higher", 0.10,
           "1 - truth_violation_rate: share of scheduled transmissions, all epochs, "
           "that decode under the exact SINR model"),
    Metric("peak_rss_mib", "MiB", "lower", 0.15,
           "ru_maxrss of the workload process + its largest pool worker, read after "
           "the run and before the audit"),
)

_SETUP = "setup_s on sparse_10k, sharded_24x24"
_TPUT = "decodable_tx_per_s"
_SIM = "simulated statistic: must not move under a host-speed change"

PER_LAYER = (
    Metric("truth_violation_rate", "ratio", "lower", None,
           "failed / attempted transmissions under the exact audit, all epochs; "
           "exact count, must be 0 on the three exact-physics workloads"),
    Metric("tx_attempted", "count", "higher", None, "scheduled (link, slot) memberships, all epochs"),
    Metric("tx_failed", "count", "lower", None, "memberships that do not decode under the exact model"),
    Metric("bench.audited", "count", "higher", None,
           "1 if the served schedules were observable and audited (0 on sharded_24x24)"),
    Metric("topology.deploy_s", "s", "lower", None, f"span around grid_network; {_SETUP}"),
    Metric("topology.commgraph_s", "s", "lower", None,
           f"span around communication_csr / Network.comm_adj (+ interference diameter); {_SETUP}"),
    Metric("topology.comm_edges", "count", "higher", None, "undirected communication edges"),
    Metric("phy.index_s", "s", "lower", None, "span around GridIndex(...); setup_s on sparse_10k"),
    Metric("phy.power_build_s", "s", "lower", None,
           "span around sparse_gain_model / first Network.model; setup_s, peak_rss_mib on sparse_10k"),
    Metric("phy.nnz", "count", "lower", None, "stored received-power entries"),
    Metric("phy.sinr_margin_min", "ratio", "higher", None,
           "audit: min over served transmissions of min(data, ACK) SINR / beta; >= 1 on exact workloads"),
    Metric("phy.infeasible_slot_share", "ratio", "lower", None,
           "audit: served slots with any failed member / served slots; moves decodable_share on sparse_10k"),
    Metric("routing.forest_s", "s", "lower", None, "span around build_routing_forest[_csr]; setup_s on sparse_10k"),
    Metric("routing.depth_max", "count", "lower", None, "deepest node of the routing forest"),
    Metric("scheduling.pack_s", "s", "lower", None,
           f"wall of greedy_physical / greedy_rate calls; {_TPUT} on sparse_10k, sessions_patch_8x8"),
    Metric("scheduling.pack_calls", "count", "lower", None, "packing calls in measured epochs"),
    Metric("scheduling.pack_tx", "count", "higher", None, "memberships those calls packed"),
    Metric("scheduling.pack_us_per_tx", "us", "lower", None, "pack_s / pack_tx"),
    Metric("scheduling.slots_mean", "count", "lower", None, "mean served schedule length over demanded epochs"),
    Metric("core.protocol_s", "s", "lower", None,
           f"wall of fdd_on_network calls (sharded: summed shard CPU, public trace field); "
           f"{_TPUT} on fdd_8x8, sharded_24x24"),
    Metric("core.protocol_calls", "count", "lower", None, "protocol runs in measured epochs"),
    Metric("core.rounds", "count", "lower", None, "protocol rounds (StepTally)"),
    Metric("core.steps", "count", "lower", None, "greedy slot-construction steps (StepTally)"),
    Metric("core.scream_calls", "count", "lower", None, "SCREAM invocations (StepTally)"),
    Metric("core.handshakes", "count", "lower", None, "handshake steps (StepTally)"),
    Metric("core.us_per_step", "us", "lower", None, "protocol_s / steps"),
    Metric("core.overhead_slots", "count", "lower", None, f"protocol + control air, data slots; {_SIM}"),
    Metric("core.control_slots", "count", "lower", None, f"slots of that owed to priced control messages; {_SIM}"),
    Metric("core.control_messages", "count", "lower", None, f"control messages booked; {_SIM}"),
    Metric("core.control_s", "s", "lower", None, f"epoch.control span; {_TPUT} on sessions_patch_8x8"),
    Metric("traffic.epoch_wall_s", "s", "lower", None,
           f"measured epoch wall from on_epoch stamps, tracing off; inverse of {_TPUT}"),
    Metric("traffic.epoch_wall_raw_floor_s", "s", "lower", None,
           "the same wall uncalibrated: raw per-epoch minimum across repeats, summed"),
    Metric("traffic.epoch_wall_median_s", "s", "lower", None, "median of pooled measured-epoch walls"),
    Metric("traffic.epoch_wall_tail_s", "s", "lower", None,
           "highest of p75/p90/p95/p99 of pooled epoch walls with >= 10 samples beyond it (else the maximum)"),
    Metric("traffic.epoch_wall_tail_pct", "%", "higher", None, "which percentile that is (100 = maximum)"),
    Metric("traffic.epoch_wall_n", "samples", "higher", None,
           "pooled epoch-wall samples (grows with the repeats that fit the window)"),
    Metric("traffic.first_epoch_s", "s", "lower", None, "warm-up epoch wall (pool spawn, first-call costs)"),
    Metric("traffic.arrivals_s", "s", "lower", None, f"epoch.arrivals self time; {_TPUT} on sessions_patch_8x8"),
    Metric("traffic.serve_s", "s", "lower", None, f"epoch.serve span; {_TPUT} on sessions_patch_8x8"),
    Metric("traffic.schedule_s", "s", "lower", None,
           "epoch.schedule self time: cache decisions, pricing, wrappers — not packing, protocol or patching"),
    Metric("traffic.patch_s", "s", "lower", None, f"incremental.patch span; {_TPUT} on sessions_patch_8x8"),
    Metric("traffic.admission_s", "s", "lower", None, f"admission.decide span; {_TPUT} on sessions_patch_8x8"),
    Metric("traffic.loop_self_s", "s", "lower", None, "traced epoch wall not covered by any named span"),
    Metric("traffic.span_coverage", "ratio", "higher", None, "share of traced epoch wall inside named spans"),
    Metric("traffic.cache_requests", "count", "higher", None, "CacheStats.requests"),
    Metric("traffic.cache_hits", "count", "higher", None, "CacheStats.hits"),
    Metric("traffic.cache_patches", "count", "higher", None, "CacheStats.patches"),
    Metric("traffic.cache_recomputes", "count", "lower", None, "CacheStats.recomputes"),
    Metric("traffic.cache_hit_rate", "ratio", "higher", None, "(hits + patches) / requests"),
    Metric("traffic.sessions_offered", "count", "higher", None, "FlowWorkload.sessions_offered"),
    Metric("traffic.sessions_blocked", "count", "lower", None, "FlowWorkload.sessions_blocked"),
    Metric("traffic.plan_s", "s", "lower", None, "span around plan_for_network; setup_s on sharded_24x24"),
    Metric("traffic.boundary_links", "count", "lower", None, "links within the guard radius of a shard edge"),
    Metric("traffic.fanout_wall_s", "s", "lower", None,
           f"trace.scheduling_wall_seconds, whole run; {_TPUT} on sharded_24x24"),
    Metric("traffic.critical_path_s", "s", "lower", None, "trace.critical_path_seconds, whole run"),
    Metric("traffic.schedule_cpu_s", "s", "lower", None, "trace.scheduling_seconds, whole run"),
    Metric("traffic.fanout_efficiency", "ratio", "higher", None, "critical path / fan-out wall"),
    Metric("traffic.reconcile_s", "s", "lower", None, f"sharded.reconcile span; {_TPUT} on sharded_24x24"),
    Metric("traffic.reconciled_tx", "count", "lower", None, f"memberships serialized by reconciliation; {_SIM}"),
    Metric("traffic.reconciled_share", "ratio", "lower", None, "reconciled_tx / scheduled demand"),
    Metric("traffic.arrivals_pkts", "count", "higher", None, _SIM),
    Metric("traffic.delivered_pkts", "count", "higher", None, _SIM),
    Metric("traffic.served_hops", "count", "higher", None, _SIM),
    Metric("traffic.backlog_end_pkts", "count", "lower", None, _SIM),
    Metric("obs.spans", "count", "lower", None, "spans recorded by one traced repeat"),
    Metric("obs.overhead_ratio", "ratio", "lower", None, "traced / untraced measured epoch wall - 1"),
    Metric("bench.host_slowdown", "ratio", "lower", None,
           "median sampled host slowdown vs the reference host; every *_s above is wall / this"),
    Metric("bench.import_s", "s", "lower", None, "raw wall of import numpy + repro + the benchmark; part of setup_s"),
    Metric("bench.audit_s", "s", "lower", None, "raw wall of the exact audit, outside every timed region"),
    Metric("bench.cpu_s", "s", "lower", None, "raw CPU of the workload process and its reaped children"),
    Metric("bench.repeats", "samples", "higher", None,
           "untraced bit-identical repeats pooled (as many as fit the window)"),
    Metric("bench.run_wall_median_s", "s", "lower", None, "median over repeats of the raw measured epoch wall"),
    Metric("bench.run_wall_iqr_s", "s", "lower", None, "its interquartile range: the host's noise"),
    Metric("bench.rss_baseline_mib", "MiB", "lower", None, "ru_maxrss after imports, before set-up"),
)


def steady(repeats: list[dict], key: str) -> float:
    """The series' total over epochs >= 1, in reference seconds, pooled over
    repeats: their mean after dropping the fastest and the slowest (when
    there are at least three — so the median of three or four)."""
    totals = sorted(
        sum(r["series"][key][1:]) / r["slowdown"] for r in repeats if key in r["series"]
    )
    if not totals:
        return 0.0
    kept = totals[1:-1] if len(totals) >= 3 else totals
    return statistics.fmean(kept)


def floor_sum(repeats: list[dict], key: str) -> float:
    """Raw per-epoch minimum across repeats, summed over epochs >= 1."""
    rows = [r["series"][key] for r in repeats]
    return float(sum(min(column) for column in list(zip(*rows))[1:]))


def _repeats(runs: list[dict], traced: bool) -> list[dict]:
    return [rep for run in runs for rep in run["repeats"] if rep["traced"] == traced]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(runs: list[dict], setups: list[float]) -> dict[str, float]:
    """``runs``: measuring-process results of one workload at one seed."""
    first = runs[0]
    wall = steady(_repeats(runs, traced=False), "epoch_wall")
    decoded = sum(first["tx_attempted"][1:]) - sum(first["tx_failed"][1:])
    return {
        "setup_s": statistics.median(setups),
        "decodable_tx_per_s": _ratio(decoded, wall),
        "decodable_share": 1.0 - _ratio(sum(first["tx_failed"]), sum(first["tx_attempted"])),
        "peak_rss_mib": statistics.median(run["peak_rss_mib"] for run in runs),
    }


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))], pct
    return ordered[-1], 100


def per_layer(runs: list[dict]) -> dict[str, float]:
    first = runs[0]
    untraced, traced = _repeats(runs, traced=False), _repeats(runs, traced=True)
    counts = first["repeats"][0]["counts"]
    built = first["counts"]

    def stage(name: str) -> float:
        return statistics.median(
            run["stages_s"].get(name, 0.0) / run["setup_slowdown"] for run in runs
        )

    def span(name: str) -> float:
        return steady(traced, f"span:{name}")

    def public(name: str) -> float:
        values = [
            rep["public"][name] / rep["slowdown"]
            for rep in untraced
            if rep["public"][name] is not None
        ]
        return statistics.median(values) if values else 0.0

    wall = steady(untraced, "epoch_wall")
    wall_traced = steady(traced, "epoch_wall")
    samples = [
        w / rep["slowdown"] for rep in untraced for w in rep["series"]["epoch_wall"][1:]
    ]
    tail_s, tail_pct = _tail(samples)
    run_walls = [sum(rep["series"]["epoch_wall"][1:]) for rep in untraced]
    quartiles = statistics.quantiles(run_walls, n=4) if len(run_walls) > 1 else [0.0, 0.0, 0.0]

    attempted, failed = sum(first["tx_attempted"]), sum(first["tx_failed"])
    pack_s = steady(traced, "pack")
    sharded = counts["n_shards"] > 1
    protocol_s = public("schedule_cpu_s") if sharded else steady(traced, "protocol")
    loop_self_s = steady(traced, "uncovered")
    requests = counts.get("cache_requests", 0)
    return {
        "truth_violation_rate": _ratio(failed, attempted),
        "tx_attempted": attempted,
        "tx_failed": failed,
        "bench.audited": int(first["audited"]),
        "topology.deploy_s": stage("deploy"),
        "topology.commgraph_s": stage("commgraph"),
        "topology.comm_edges": built["comm_edges"],
        "phy.index_s": stage("index"),
        "phy.power_build_s": stage("power"),
        "phy.nnz": built["nnz"],
        "phy.sinr_margin_min": first["sinr_margin_min"],
        "phy.infeasible_slot_share": _ratio(first["infeasible_slots"], first["slots"]),
        "routing.forest_s": stage("forest"),
        "routing.depth_max": built["depth_max"],
        "scheduling.pack_s": pack_s,
        "scheduling.pack_calls": counts["pack_calls"],
        "scheduling.pack_tx": counts["pack_tx"],
        "scheduling.pack_us_per_tx": 1e6 * _ratio(pack_s, counts["pack_tx"]),
        "scheduling.slots_mean": counts["slots_mean"],
        "core.protocol_s": protocol_s,
        "core.protocol_calls": counts["protocol_calls"],
        "core.rounds": counts["rounds"],
        "core.steps": counts["steps"],
        "core.scream_calls": counts["scream_calls"],
        "core.handshakes": counts["handshakes"],
        "core.us_per_step": 1e6 * _ratio(protocol_s, counts["steps"]),
        "core.overhead_slots": counts["overhead_slots"],
        "core.control_slots": counts["control_slots"],
        "core.control_messages": counts["control_messages"],
        "core.control_s": span("epoch.control"),
        "traffic.epoch_wall_s": wall,
        "traffic.epoch_wall_raw_floor_s": floor_sum(untraced, "epoch_wall"),
        "traffic.epoch_wall_median_s": statistics.median(samples),
        "traffic.epoch_wall_tail_s": tail_s,
        "traffic.epoch_wall_tail_pct": tail_pct,
        "traffic.epoch_wall_n": len(samples),
        "traffic.first_epoch_s": statistics.median(
            rep["series"]["epoch_wall"][0] / rep["slowdown"] for rep in untraced
        ),
        "traffic.arrivals_s": span("epoch.arrivals"),
        "traffic.serve_s": span("epoch.serve"),
        "traffic.schedule_s": span("epoch.schedule") + span("bench.call.schedule"),
        "traffic.patch_s": span("incremental.patch"),
        "traffic.admission_s": span("admission.decide"),
        "traffic.loop_self_s": loop_self_s,
        "traffic.span_coverage": 1.0 - _ratio(loop_self_s, wall_traced),
        "traffic.cache_requests": requests,
        "traffic.cache_hits": counts.get("cache_hits", 0),
        "traffic.cache_patches": counts.get("cache_patches", 0),
        "traffic.cache_recomputes": counts.get("cache_recomputes", 0),
        "traffic.cache_hit_rate": _ratio(
            counts.get("cache_hits", 0) + counts.get("cache_patches", 0), requests
        ),
        "traffic.sessions_offered": counts.get("sessions_offered", 0),
        "traffic.sessions_blocked": counts.get("sessions_blocked", 0),
        "traffic.plan_s": stage("plan"),
        "traffic.boundary_links": built.get("boundary_links", 0),
        "traffic.fanout_wall_s": public("fanout_wall_s"),
        "traffic.critical_path_s": public("critical_path_s"),
        "traffic.schedule_cpu_s": public("schedule_cpu_s"),
        "traffic.fanout_efficiency": _ratio(public("critical_path_s"), public("fanout_wall_s")),
        "traffic.reconcile_s": span("sharded.reconcile"),
        "traffic.reconciled_tx": counts["reconciled_tx"],
        "traffic.reconciled_share": _ratio(counts["reconciled_tx"], sum(first["repeats"][0]["demand"])),
        "traffic.arrivals_pkts": counts["arrivals_pkts"],
        "traffic.delivered_pkts": counts["delivered_pkts"],
        "traffic.served_hops": counts["served_hops"],
        "traffic.backlog_end_pkts": counts["backlog_end_pkts"],
        "obs.spans": max((rep["counts"]["spans"] for rep in traced), default=0),
        "obs.overhead_ratio": _ratio(wall_traced, wall) - 1.0 if traced else 0.0,
        "bench.host_slowdown": statistics.median(rep["slowdown"] for rep in untraced + traced),
        "bench.import_s": statistics.median(run["import_s"] for run in runs),
        "bench.audit_s": first["audit_s"],
        "bench.cpu_s": statistics.median(run["run_cpu_s"] for run in runs),
        "bench.repeats": len(untraced),
        "bench.run_wall_median_s": statistics.median(run_walls),
        "bench.run_wall_iqr_s": quartiles[2] - quartiles[0],
        "bench.rss_baseline_mib": statistics.median(run["rss_baseline_mib"] for run in runs),
    }
