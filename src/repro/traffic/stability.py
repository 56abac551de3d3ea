"""Throughput, delay, backlog-growth, and stability-region metrics.

A scheduler is *stable* at an arrival rate when queue backlogs stay bounded
— served work keeps up with offered work.  We detect instability from the
end-of-epoch backlog series: a least-squares slope that grows by more than a
tolerance fraction of the per-epoch arrivals (or a divergence early-stop in
the epoch loop) marks the operating point unstable.  Sweeping the arrival
rate upward and recording the last stable point before the first unstable
one locates the *knee* of the stability region — the per-scheduler capacity
the heavy-traffic evaluations compare (cf. arXiv:1106.1590, arXiv:1208.0902).

Operating points that sit *at* utilization ≈ 1 are genuinely marginal: their
verdict flips with the arrival sample path (the FDD λ=0.019 point on the 8×8
grid did exactly that).  :func:`stability_sweep` therefore re-evaluates
*borderline* points — those whose instability margin falls inside a
band around the decision threshold — over several independent
arrival seeds and takes the majority verdict, so a knee is pinned by the
ensemble rather than by one lucky (or unlucky) sample path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from repro.traffic.epoch import TrafficTrace

#: A backlog slope above this fraction of the mean per-epoch arrivals reads
#: as unbounded growth.  Chosen well above regression noise on stable runs
#: and well below the growth of even mildly overloaded ones.
STABILITY_TOLERANCE = 0.05

#: Magnitude gate on the slope test: a positive slope only counts as
#: instability once the final backlog itself reaches this fraction of one
#: epoch's arrivals.  A stable queue empties (almost) every epoch, so its
#: backlog series is small-integer noise whose fitted slope can spike; a
#: genuinely unstable queue accumulates epoch after epoch and clears the
#: gate within a few epochs.
BACKLOG_GATE_FRACTION = 0.5

#: Hysteresis band for borderline detection: a point whose instability
#: margin falls within ``[1/h, h]`` of the threshold is re-evaluated over
#: multiple arrival seeds before its verdict is trusted.
BORDERLINE_HYSTERESIS = 2.0

#: Independent arrival seeds used to resolve a borderline verdict by
#: majority (odd, so the vote cannot tie).
CONFIRM_SEEDS = 3


@dataclass(frozen=True)
class StabilityMetrics:
    """Steady-state metrics of one (scheduler, arrival-rate) operating point."""

    offered_rate: float  # packets per node per slot (the swept lambda)
    throughput: float  # delivered packets per slot
    mean_delay: float  # slots, over delivered packets (nan if none)
    p99_delay: float  # slots (nan if none delivered)
    backlog_final: int
    backlog_slope: float  # packets per epoch, least squares over the tail
    stable: bool
    overhead_slots: float = 0.0  # amortized protocol overhead, slots per epoch
    cache_hit_rate: float = 0.0  # epochs that avoided a full scheduler re-run
    confirm_seeds: int = 1  # arrival seeds behind the stable verdict
    # Multi-rate serving (repro.phy.radio.RateTable): realized packets per
    # play, served packet-hops over link-slot transmissions.  Exactly 1.0
    # on fixed-rate runs and under the degenerate table; above 1.0 when
    # links win higher MCS tiers.  Throughput/knee metrics need no separate
    # conversion — they were always counted in *delivered packets*, which
    # is precisely what rate-weighted serving inflates.
    mean_service_rate: float = 1.0
    # In-band control-plane accounting (repro.core.controlplane); both stay
    # at 0 on unpriced runs, so pre-pricing metrics compare unchanged.
    control_slots: float = 0.0  # amortized control share of the overhead, slots/epoch
    control_messages: float = 0.0  # control messages booked, per epoch
    # Flow-session SLA accounting (repro.traffic.admission); all three stay
    # at their defaults when the operating point carries no session layer.
    blocking_probability: float = float("nan")  # sessions rejected at arrival
    admitted_goodput: float = float("nan")  # delivered pkt/slot of admitted flows
    flow_p99_delay: float = float("nan")  # p99 over per-flow mean delays, slots


def series_slope(series) -> float:
    """Least-squares slope of a 1-D series against its index.

    The single slope implementation behind :func:`backlog_slope` and the
    admission controllers' sliding windows, in closed form: with ``c =
    (n-1)/2``, ``Σ (i - c) y_i / Σ (i - c)²``, the denominator ``n (n² -
    1) / 12`` and the numerator summed as ``Σ_{i < n/2} (i - c) (y_i -
    y_{n-1-i})``, so a series symmetric about its midpoint (constant, or
    ``[3, 0, 3]``) reads exactly 0.0, as do series of fewer than two points.
    """
    y = np.asarray(series, dtype=float)
    n = y.size
    if n < 2:
        return 0.0
    centred = np.arange(n // 2) - (n - 1) / 2
    return float(centred @ (y - y[::-1])[: n // 2] * 12 / (n * (n * n - 1)))


def backlog_slope(trace: TrafficTrace) -> float:
    """Least-squares slope (packets/epoch) over the trailing half of the
    backlog series (all of it when that half is one point)."""
    series = trace.backlog_series()
    tail = series[series.size // 2 :]
    return series_slope(tail if tail.size > 1 else series)


def stability_margin(trace: TrafficTrace) -> float:
    """How decisively the instability test resolves, as a ratio.

    Instability requires the backlog slope to clear its threshold *and* the
    final backlog to clear the magnitude gate; the margin is the smaller of
    the two ratios, so values ``> 1`` read unstable, ``< 1`` stable, and
    values near 1 are borderline.  Diverged traces return ``inf`` (the
    divergence guard only fires on decisive blow-ups); empty traces, and
    traces whose backlog emptied in the trailing half, 0: a drained queue
    accumulated nothing, though a few packets of integer noise (``[0 4 0 1
    0 3 0 5]`` at 6 arrivals per epoch) clear both floors.
    """
    if trace.diverged:
        return float("inf")
    series = trace.backlog_series()
    if trace.last_record is None or not series[series.size // 2 :].all():
        return 0.0
    arrivals_per_epoch = trace.arrivals_total / trace.n_epochs_run
    slope_ratio = backlog_slope(trace) / max(
        STABILITY_TOLERANCE * arrivals_per_epoch, 1.0
    )
    gate_ratio = trace.last_record.backlog_end / max(
        BACKLOG_GATE_FRACTION * arrivals_per_epoch, 1.0
    )
    return min(slope_ratio, gate_ratio)


def is_stable(trace: TrafficTrace) -> bool:
    """Bounded-backlog check.

    Unstable when the epoch loop's divergence guard fired, or when the
    trailing backlog slope exceeds :data:`STABILITY_TOLERANCE` of the
    per-epoch arrivals, the backlog never emptied in the trailing half,
    *and* the final backlog has actually accumulated past the
    :data:`BACKLOG_GATE_FRACTION` magnitude gate.
    """
    return stability_margin(trace) <= 1.0


def is_borderline(trace: TrafficTrace) -> bool:
    """Is this verdict close enough to the threshold to flip with the
    arrival sample path?

    True when the instability margin falls inside ``[1/h, h]`` for
    ``h =`` :data:`BORDERLINE_HYSTERESIS` — the operating point sits near
    utilization 1, where a single seed's verdict is luck, not capacity.
    """
    margin = stability_margin(trace)
    return 1.0 / BORDERLINE_HYSTERESIS <= margin <= BORDERLINE_HYSTERESIS


def majority_stable(traces: Sequence[TrafficTrace]) -> bool:
    """Majority :func:`is_stable` verdict over independent sample paths."""
    if not traces:
        raise ValueError("majority_stable needs at least one trace")
    votes = sum(1 for t in traces if is_stable(t))
    return votes * 2 > len(traces)


def summarize_trace(
    trace: TrafficTrace,
    offered_rate: float,
    session=None,
) -> StabilityMetrics:
    """Collapse a trace into one stability-region data point.

    ``session`` optionally attaches a
    :class:`~repro.traffic.flows.FlowWorkload` whose run produced the
    trace; its SLA accounting (blocking probability, admitted goodput,
    per-flow p99 delay) then populates the metrics' session fields.
    """
    slots = max(trace.total_slots, 1)
    epochs = max(trace.n_epochs_run, 1)
    delays = (
        trace.queues.delay_array() if trace.queues is not None else np.empty(0, np.int64)
    )
    mean_delay = float(delays.mean()) if delays.size else float("nan")
    p99_delay = float(np.percentile(delays, 99)) if delays.size else float("nan")
    throughput = trace.delivered_total / slots
    service_rate = 1.0
    if trace.queues is not None and trace.queues.plays_total > 0:
        service_rate = trace.queues.served_total / trace.queues.plays_total
    blocking = float("nan")
    goodput = float("nan")
    flow_p99 = float("nan")
    if session is not None:
        from repro.traffic.admission import flow_delay_percentile

        blocking = session.blocking_probability
        # Only admitted flows inject packets, so the trace's throughput
        # *is* the admitted goodput (the two diverge only if unadmitted
        # traffic ever reaches the queues).
        goodput = throughput
        if trace.queues is not None:
            flow_p99 = flow_delay_percentile(session, trace.queues)
    return StabilityMetrics(
        offered_rate=float(offered_rate),
        throughput=throughput,
        mean_delay=mean_delay,
        p99_delay=p99_delay,
        backlog_final=(trace.last_record.backlog_end if trace.last_record is not None else 0),
        backlog_slope=backlog_slope(trace),
        stable=is_stable(trace),
        overhead_slots=trace.overhead_slots_total / epochs,
        cache_hit_rate=trace.cache_hit_rate,
        mean_service_rate=service_rate,
        control_slots=trace.control_slots_total / epochs,
        control_messages=trace.control_messages_total / epochs,
        blocking_probability=blocking,
        admitted_goodput=goodput,
        flow_p99_delay=flow_p99,
    )


def stability_sweep(
    rates: Sequence[float], run_at: Callable[..., TrafficTrace]
) -> list[StabilityMetrics]:
    """Evaluate one scheduler across an ascending arrival-rate sweep.

    ``run_at(rate, seed_index=k)`` runs the epoch loop at that offered rate
    on arrival sample path ``k`` (0 for the base run).  Borderline points
    — see :func:`is_borderline` — are re-run on seeds ``1 ..
    CONFIRM_SEEDS - 1`` and their verdict replaced by the majority over
    all runs, so operating points at utilization ≈ 1 no longer flip with a
    single sample path.  Decisive points are never re-run: the extra cost
    is paid only at the knee.
    """
    points: list[StabilityMetrics] = []
    for rate in sorted(float(r) for r in rates):
        trace = run_at(rate, seed_index=0)
        point = summarize_trace(trace, rate)
        if is_borderline(trace):
            traces = [trace] + [
                run_at(rate, seed_index=k) for k in range(1, CONFIRM_SEEDS)
            ]
            point = replace(
                point, stable=majority_stable(traces), confirm_seeds=CONFIRM_SEEDS
            )
        points.append(point)
    return points


def stability_knee(points: Sequence[StabilityMetrics]) -> float | None:
    """The knee of the stability region: the last stable rate before the
    first unstable one (``None`` when even the lowest rate is unstable).

    When every swept point is stable the largest tested rate is returned —
    a lower bound on the true knee, as the sweep never found the boundary.
    """
    ordered = sorted(points, key=lambda m: m.offered_rate)
    knee: float | None = None
    for point in ordered:
        if not point.stable:
            break
        knee = point.offered_rate
    return knee
