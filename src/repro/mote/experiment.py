"""The 8-mote SCREAM experiment (Section V).

Per 100 ms round: the Initiator screams ``SMBytes``; each Relay samples RSSI
on its own grid and re-screams once upon its first detecting sample
(after a software turn-around); the Monitor runs a dB-domain moving average
over its RSSI samples and registers a SCREAM at the first upward crossing of
the -60 dBm threshold.  The paper's metric is the percentage of inter-scream
intervals outside ±5% of the 100 ms initiation period.

The error mechanism this reproduces: a SCREAM must keep the channel hot for
most of a moving-average window before the average clears the threshold —
bursts shorter than ~window x sample-period (≈10 bytes at CC1000 rates) are
missed with growing probability, while >20-byte bursts detect essentially
always, which is exactly the knee the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mote.cc1000 import CC1000, MoteLinkBudget
from repro.mote.rssi import (
    TransmissionInterval,
    moving_average,
    rssi_dbm,
    threshold_crossings,
)
from repro.util.rng import ensure_rng, spawn
from repro.util.validation import check_integer_in_range, check_positive


@dataclass(frozen=True)
class ScreamExperiment:
    """Configuration of one detection-error experiment."""

    smbytes: int = 15
    n_relays: int = 6
    n_screams: int = 2000
    period_s: float = 0.100
    tolerance: float = 0.05
    radio: CC1000 = field(default_factory=CC1000)
    budget: MoteLinkBudget = field(default_factory=MoteLinkBudget)

    def __post_init__(self) -> None:
        check_integer_in_range("smbytes", self.smbytes, minimum=1)
        check_integer_in_range("n_relays", self.n_relays, minimum=1)
        check_integer_in_range("n_screams", self.n_screams, minimum=2)
        check_positive("period_s", self.period_s)
        check_positive("tolerance", self.tolerance)


@dataclass
class ExperimentResult:
    """Outcome of a detection-error experiment."""

    smbytes: int
    n_screams: int
    detections: int
    intervals: np.ndarray
    error_percent: float
    miss_rate: float


def _round_detection_time(
    exp: ScreamExperiment, rng: np.random.Generator
) -> float | None:
    """Monitor detection time within one scream round (None = missed).

    Times are relative to the round's initiation instant.  Each mote keeps
    its own free-running RSSI sampling grid, modelled as a uniformly random
    phase per round.
    """
    radio = exp.radio
    budget = exp.budget
    burst_s = radio.burst_duration_s(exp.smbytes)
    ts = radio.rssi_sample_period_s

    # Relays: first sampling instant inside the initiator's burst that reads
    # above threshold triggers a re-scream (the initiator is comfortably
    # above threshold at the relays, so a sample inside the burst detects
    # unless measurement noise pushes it under).
    relay_bursts: list[TransmissionInterval] = []
    for _ in range(exp.n_relays):
        phase = rng.uniform(0.0, ts)
        sample_times = np.arange(phase, burst_s, ts)
        detected_at: float | None = None
        for t in sample_times:
            reading = budget.initiator_at_relay_dbm + (
                rng.normal(0.0, budget.noise_sigma_db)
                if budget.noise_sigma_db
                else 0.0
            )
            if reading >= budget.threshold_dbm:
                detected_at = float(t)
                break
        if detected_at is not None:
            relay_bursts.append(
                TransmissionInterval(
                    start_s=detected_at + radio.detect_processing_s,
                    duration_s=burst_s,
                    level_dbm=budget.relay_at_monitor_dbm,
                )
            )
    # The initiator itself is two hops out: present but sub-threshold.
    bursts = [
        TransmissionInterval(0.0, burst_s, budget.initiator_at_monitor_dbm)
    ] + relay_bursts

    # Monitor: moving-average detector over its own free-running sampling
    # grid.  Sampling is continuous across rounds, so the average is warmed
    # up with pre-round noise samples — a short burst must displace most of
    # the window before the average clears the threshold.
    window = radio.moving_average_window
    phase = rng.uniform(0.0, ts)
    start = phase - window * ts
    sample_times = np.arange(start, exp.period_s, ts)
    readings = rssi_dbm(
        sample_times, bursts, budget.noise_floor_dbm, budget.noise_sigma_db, rng
    )
    averaged = moving_average(readings, window)
    crossings = threshold_crossings(sample_times, averaged, budget.threshold_dbm)
    if crossings.size == 0:
        return None
    return float(crossings[0])


def run_experiment(
    exp: ScreamExperiment, rng: np.random.Generator | int | None = None
) -> ExperimentResult:
    """Run the full experiment; compute the paper's interval-error metric."""
    generator = ensure_rng(rng)
    detection_times: list[float] = []
    misses = 0
    for round_idx in range(exp.n_screams):
        t = _round_detection_time(exp, spawn(generator, "round", round_idx))
        if t is None:
            misses += 1
        else:
            detection_times.append(round_idx * exp.period_s + t)

    times = np.asarray(detection_times)
    intervals = np.diff(times) if times.size >= 2 else np.empty(0)
    lo = exp.period_s * (1.0 - exp.tolerance)
    hi = exp.period_s * (1.0 + exp.tolerance)
    expected_intervals = exp.n_screams - 1
    good = int(((intervals >= lo) & (intervals <= hi)).sum())
    error_percent = 100.0 * (expected_intervals - good) / expected_intervals

    return ExperimentResult(
        smbytes=exp.smbytes,
        n_screams=exp.n_screams,
        detections=int(times.size),
        intervals=intervals,
        error_percent=error_percent,
        miss_rate=misses / exp.n_screams,
    )


def run_detection_error_sweep(
    smbytes_values: list[int],
    n_screams: int = 2000,
    rng: np.random.Generator | int | None = None,
    **kwargs,
) -> list[ExperimentResult]:
    """The paper's Figure "error vs SCREAM size": one run per size."""
    root = ensure_rng(rng)
    results = []
    for smbytes in smbytes_values:
        exp = ScreamExperiment(smbytes=smbytes, n_screams=n_screams, **kwargs)
        results.append(run_experiment(exp, spawn(root, "smbytes", smbytes)))
    return results


def miss_probability(
    smbytes: int,
    n_trials: int = 400,
    rng: np.random.Generator | int | None = None,
    **kwargs,
) -> float:
    """Estimated per-SCREAM monitor miss probability for a given size.

    This is the coupling point to the protocol fault model: feed it into
    :class:`repro.core.config.FaultConfig(scream_miss_prob=...)` to study
    how physical detection reliability propagates into schedule validity.
    """
    exp = ScreamExperiment(smbytes=smbytes, n_screams=max(2, n_trials), **kwargs)
    generator = ensure_rng(rng)
    misses = 0
    for i in range(n_trials):
        if _round_detection_time(exp, spawn(generator, "trial", i)) is None:
            misses += 1
    return misses / n_trials


def monitor_rssi_trace(
    smbytes: int = 24,
    n_rounds: int = 5,
    log_every: int = 3,
    rng: np.random.Generator | int | None = None,
    radio: CC1000 | None = None,
    budget: MoteLinkBudget | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's RSSI-trace figure: (times, moving-average dBm) arrays.

    Reproduces the logging conditions: moving average recorded every
    ``log_every`` RSSI samples ("owing to device and UART limitations"),
    default SCREAM size 24 bytes.
    """
    cc = radio or CC1000()
    lb = budget or MoteLinkBudget()
    generator = ensure_rng(rng)
    exp = ScreamExperiment(smbytes=smbytes, radio=cc, budget=lb, n_screams=2)

    ts = cc.rssi_sample_period_s
    burst_s = cc.burst_duration_s(smbytes)
    all_times: list[np.ndarray] = []
    all_values: list[np.ndarray] = []
    for round_idx in range(n_rounds):
        round_rng = spawn(generator, "trace", round_idx)
        bursts = [TransmissionInterval(0.0, burst_s, lb.initiator_at_monitor_dbm)]
        for _ in range(exp.n_relays):
            phase = round_rng.uniform(0.0, ts)
            bursts.append(
                TransmissionInterval(
                    phase + cc.detect_processing_s, burst_s, lb.relay_at_monitor_dbm
                )
            )
        window = cc.moving_average_window
        phase = round_rng.uniform(0.0, ts)
        sample_times = np.arange(phase - window * ts, exp.period_s, ts)
        readings = rssi_dbm(
            sample_times, bursts, lb.noise_floor_dbm, lb.noise_sigma_db, round_rng
        )
        averaged = moving_average(readings, window)
        keep = sample_times >= 0.0
        offset = round_idx * exp.period_s
        all_times.append(sample_times[keep][::log_every] + offset)
        all_values.append(averaged[keep][::log_every])
    return np.concatenate(all_times), np.concatenate(all_values)
