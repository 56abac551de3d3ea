"""One benchmark process: set a workload up, optionally measure and audit it.

Started by ``run.py`` as ``python child.py '<job json>'``; prints one JSON
object (the last line of stdout) and exits.  A fresh interpreter per
process makes ``setup_s`` include what users pay on every run (``import
repro``) and makes ``ru_maxrss`` this workload's own high-water mark.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIB_PER_KIB = 1.0 / 1024.0


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss * MIB_PER_KIB  # Linux: KiB


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _fingerprint(records) -> str:
    """Hash of the simulated statistics a host-speed change must not move."""
    rows = [
        (
            r.epoch,
            r.arrivals,
            r.served,
            r.delivered,
            r.backlog_end,
            r.demand_scheduled,
            r.schedule_length,
            r.overhead_slots,
            r.control_slots,
            r.control_messages,
            r.reconciled,
            int(r.cache_hit),
            int(r.patched),
        )
        for r in records
    ]
    return hashlib.sha256(json.dumps(rows, default=_plain).encode()).hexdigest()[:16]


def _plain(value):
    return value.item()  # numpy scalars are the only non-JSON values produced


def _per_epoch(entries, n_epochs: int) -> list[float]:
    out = [0.0] * n_epochs
    for epoch, wall_s, *_ in entries:
        out[epoch] += wall_s
    return out


def _summarize_repeat(probe, trace, n_epochs: int, timeline) -> dict:
    """Everything kept of one engine run (epoch 0 is warm-up: counts that
    pair with a timing cover epochs >= 1, simulated totals the whole run)."""
    records = probe.records
    series = {
        "epoch_wall": probe.epoch_walls(),
        "pack": _per_epoch(probe.packs, n_epochs),
        "protocol": _per_epoch(probe.protocols, n_epochs),
    }
    n_spans = 0
    if timeline is not None:
        for name, values in timeline["self_s"].items():
            series[f"span:{name}"] = values
        series["uncovered"] = [
            wall - covered
            for wall, covered in zip(series["epoch_wall"], timeline["covered_s"])
        ]
        n_spans = len(timeline["spans"])
    packs = [p for p in probe.packs if p[0] >= 1]
    tallies = [t for epoch, _, t in probe.protocols if epoch >= 1]
    demanded = [r for r in records if r.demand_scheduled > 0]
    counts = {
        "pack_calls": len(packs),
        "pack_tx": sum(p[2] for p in packs),
        "protocol_calls": len(tallies),
        "rounds": sum(t.rounds for t in tallies),
        "steps": sum(t.steps for t in tallies),
        "scream_calls": sum(t.scream_calls for t in tallies),
        "handshakes": sum(t.handshakes for t in tallies),
        "slots_mean": (
            sum(r.schedule_length for r in demanded) / len(demanded) if demanded else 0.0
        ),
        "overhead_slots": sum(r.overhead_slots for r in records),
        "control_slots": sum(r.control_slots for r in records),
        "control_messages": sum(r.control_messages for r in records),
        "reconciled_tx": sum(r.reconciled for r in records),
        "n_shards": records[0].n_shards,
        "arrivals_pkts": sum(r.arrivals for r in records),
        "delivered_pkts": sum(r.delivered for r in records),
        "served_hops": sum(r.served for r in records),
        "backlog_end_pkts": records[-1].backlog_end,
        "spans": n_spans,
    }
    if probe.stats is not None:
        stats = probe.stats
        counts.update(
            cache_requests=stats.requests,
            cache_hits=stats.hits,
            cache_patches=stats.patches,
            cache_recomputes=stats.recomputes,
        )
    if probe.workload is not None:
        counts.update(
            sessions_offered=probe.workload.sessions_offered,
            sessions_blocked=probe.workload.sessions_blocked,
        )
    handed_tx = [0] * n_epochs
    for epoch, schedule in probe.handed:
        handed_tx[epoch] += sum(len(slot) for slot in schedule.slots)
    return {
        "traced": timeline is not None,
        "fingerprint": _fingerprint(records),
        "series": series,
        "counts": counts,
        "public": {
            "fanout_wall_s": trace.scheduling_wall_seconds,
            "critical_path_s": trace.critical_path_seconds,
            "schedule_cpu_s": trace.scheduling_seconds,
        },
        "demand": [r.demand_scheduled for r in records],
        "handed_tx": handed_tx,
        "epochs_run": len(records),
        "conserved": counts["arrivals_pkts"]
        == counts["delivered_pkts"] + counts["backlog_end_pkts"],
        "diverged": bool(trace.diverged),
    }


def main(job: dict) -> dict:
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from calibrate import Sampler

    sampler = Sampler()
    sampler.start()
    try:
        return _measure(job, sampler)
    finally:
        sampler.stop()


def _measure(job: dict, sampler) -> dict:
    started = time.perf_counter()
    import workloads  # pulls in numpy + repro: the import users pay for
    from audit import audit_run
    from probe import Probe, TimelineRecorder
    from repro.obs import Obs, ObsConfig
    from timeline import analyse

    import_s = time.perf_counter() - started
    rss_baseline_mib = _rss_mib(resource.RUSAGE_SELF)

    workload = workloads.WORKLOADS[job["workload"]]
    seed, smoke, tracing = job["seed"], job["smoke"], bool(job["trace"])
    setup_recorder = TimelineRecorder()
    stage = workloads.Stages(setup_recorder)
    pipeline = workload.setup(smoke, stage)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp taken
    # just before it started this process is comparable.
    setup_s = time.monotonic() - job["t_spawn"]
    result = {
        "setup_s": setup_s,
        "setup_slowdown": sampler.slowdown(started, time.perf_counter()),
        "import_s": import_s,
        "rss_baseline_mib": rss_baseline_mib,
        "stages_s": stage.wall_s,
        "counts": pipeline.counts,
    }
    if job["mode"] == "setup":
        return result

    n_epochs = 1 + (workload.smoke_epochs if smoke else workload.epochs)
    if workload.pool:
        sampler.stop()  # sampled at epoch boundaries instead, by the probe
    repeats, span_rows, first_probe = [], [], None
    window = job["seconds"]
    loop_started = time.perf_counter()
    while True:
        traced = tracing and len(repeats) % 2 == 1
        recorder = TimelineRecorder() if traced else None
        obs = None
        if traced:
            obs = Obs(ObsConfig(level="spans"))
            obs.recorder = recorder
        probe = Probe(recorder, sampler if workload.pool else None)
        gc.collect()
        probe.start()
        trace = workload.run(pipeline, n_epochs, seed, probe, obs, smoke)
        took = time.perf_counter() - probe.started
        timeline = analyse(recorder.rows, n_epochs) if traced else None
        if traced and not span_rows:
            span_rows = timeline["spans"]
        repeats.append(_summarize_repeat(probe, trace, n_epochs, timeline))
        # Host speed over the measured epochs (epoch 0 is warm-up).
        repeats[-1]["slowdown"] = sampler.slowdown(probe.epoch_end[0], probe.epoch_end[-1])
        if first_probe is None:
            first_probe = probe
        else:
            probe.handed.clear()  # identical work: only the first is audited
        elapsed = time.perf_counter() - loop_started
        # At least two repeats (when tracing: one untraced, one traced);
        # then stop once another repeat would overshoot the window by more
        # than half its length.
        if len(repeats) >= 2 and elapsed + 0.5 * took > window:
            break

    # Pool workers are shut down without waiting; reap them so that their
    # peak RSS and CPU time are on this process's books, and none outlives it.
    for worker in multiprocessing.active_children():
        worker.join(timeout=30)
    result["peak_rss_mib"] = _rss_mib(resource.RUSAGE_SELF) + _rss_mib(
        resource.RUSAGE_CHILDREN
    )
    result["run_cpu_s"] = _cpu_s()

    audit_started = time.perf_counter()
    if workload.audited:
        report = audit_run(
            pipeline.network, pipeline.links, first_probe.handed, n_epochs
        )
        attempted, failed = report.attempted, report.failed
        slots, bad_slots = report.slots, report.infeasible_slots
        margin_min = report.margin_min if report.slots else 0.0
    else:
        # The reconciled round is not observable from outside the engine:
        # count what the engine says it scheduled, unaudited.
        attempted = repeats[0]["demand"]
        failed = [0] * len(attempted)
        slots, bad_slots, margin_min = 0, 0, 0.0
    result.update(
        audited=workload.audited,
        tx_attempted=attempted,
        tx_failed=failed,
        slots=slots,
        infeasible_slots=bad_slots,
        sinr_margin_min=margin_min,
        audit_s=time.perf_counter() - audit_started,
        repeats=repeats,
        n_epochs=n_epochs,
    )

    problems = []
    prints = {r["fingerprint"] for r in repeats}
    if len(prints) != 1:
        problems.append(f"sim_fingerprint differs across repeats/tracing: {sorted(prints)}")
    for i, repeat in enumerate(repeats):
        if not repeat["conserved"]:
            problems.append(f"repeat {i}: arrivals != delivered + backlog_end")
        if repeat["diverged"] or repeat["epochs_run"] != n_epochs:
            problems.append(f"repeat {i}: diverged after {repeat['epochs_run']} epochs")
    if workload.audited and workload.unit_rate:
        if repeats[0]["handed_tx"] != repeats[0]["demand"]:
            problems.append("handed memberships != demand_scheduled")
    if workload.exact and sum(failed):
        problems.append(
            f"exact-physics workload failed the audit: {sum(failed)} of "
            f"{sum(attempted)} transmissions undecodable"
        )
    result["problems"] = problems

    if tracing and span_rows:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        setup_rows = analyse(setup_recorder.rows, 0)["spans"]
        with open(out_dir / f"{workload.name}.trace.jsonl", "w") as handle:
            for row in setup_rows + span_rows:
                handle.write(json.dumps(row, default=_plain) + "\n")
    return result


if __name__ == "__main__":
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    print(json.dumps(main(json.loads(sys.argv[1])), default=_plain))
