"""RSSI synthesis: point-sampled received power with measurement noise.

A mote's RSSI reading at time ``t`` is the dB-ized sum of the powers (mW) of
every transmission on the air at ``t`` plus the noise floor, with Gaussian
dB-domain measurement noise.  Detection processing (thresholds, moving
averages) happens in the dB domain, as the mote software does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.units import dbm_to_mw


@dataclass(frozen=True)
class TransmissionInterval:
    """One burst on the air: [start, start + duration) at a received level.

    ``level_dbm`` is the power this burst contributes *at the sampling
    mote* (link budget already applied).
    """

    start_s: float
    duration_s: float
    level_dbm: float

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


def rssi_dbm(
    sample_times: np.ndarray,
    bursts: list[TransmissionInterval],
    noise_floor_dbm: float,
    noise_sigma_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """RSSI readings (dBm) at each sample time.

    Powers of concurrently active bursts add in milliwatts (this additivity
    is the physical basis of SCREAM's collision resilience); measurement
    noise is Gaussian in dB.
    """
    times = np.asarray(sample_times, dtype=float)
    total_mw = np.full(times.shape, dbm_to_mw(noise_floor_dbm), dtype=float)
    for burst in bursts:
        active = (times >= burst.start_s) & (times < burst.end_s)
        if active.any():
            total_mw[active] += dbm_to_mw(burst.level_dbm)
    readings = 10.0 * np.log10(total_mw)
    if noise_sigma_db > 0:
        readings = readings + rng.normal(0.0, noise_sigma_db, size=times.shape)
    return readings


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average; the first ``window - 1`` entries average
    over the shorter available prefix (mote software behaviour at start-up).
    """
    v = np.asarray(values, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1 or v.size == 0:
        return v.copy()
    cumsum = np.cumsum(v)
    out = np.empty_like(v)
    head = min(window, v.size)
    out[:head] = cumsum[:head] / np.arange(1, head + 1)
    if v.size > window:
        out[window:] = (cumsum[window:] - cumsum[:-window]) / window
    return out


def threshold_crossings(
    sample_times: np.ndarray, values: np.ndarray, threshold: float
) -> np.ndarray:
    """Times of upward threshold crossings (below -> at/above).

    A reading already above the threshold at index 0 counts as a crossing at
    the first sample time.
    """
    times = np.asarray(sample_times, dtype=float)
    v = np.asarray(values, dtype=float)
    if times.shape != v.shape:
        raise ValueError("sample_times and values must have the same shape")
    above = v >= threshold
    if above.size == 0:
        return np.empty(0)
    rising = np.flatnonzero(above[1:] & ~above[:-1]) + 1
    crossings = times[rising]
    if above[0]:
        crossings = np.concatenate([[times[0]], crossings])
    return crossings
