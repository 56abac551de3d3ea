"""Mote experiments (the paper's Figures 4 and 5, Section V)."""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import TextTable
from repro.experiments.common import ExperimentProfile
from repro.mote import monitor_rssi_trace, run_detection_error_sweep
from repro.util.rng import spawn


def mote_error_experiment(profile: ExperimentProfile) -> TextTable:
    """E1 — % error in SCREAM detection vs SCREAM size (bytes).

    The paper's qualitative result: negligible error above 20 bytes, rapid
    growth below 10.
    """
    results = run_detection_error_sweep(
        list(profile.mote_smbytes),
        n_screams=profile.mote_screams,
        rng=spawn(profile.seed, "mote-error"),
    )
    table = TextTable(
        ["SCREAM size (bytes)", "detected", "interval error (%)", "miss rate"],
        title=f"SCREAM detection error vs size ({profile.mote_screams} screams, "
        "8 motes: initiator + 6 relays + monitor)",
    )
    for r in results:
        table.add_row(
            r.smbytes,
            f"{r.detections}/{r.n_screams}",
            f"{r.error_percent:.1f}",
            f"{r.miss_rate:.3f}",
        )
    return table


def mote_rssi_experiment(profile: ExperimentProfile) -> TextTable:
    """E2 — moving average of monitor RSSI for 24-byte SCREAMs, 5 rounds.

    Summarizes the trace the paper plots: the averaged RSSI sits at the
    noise floor between screams and rises cleanly above the -60 dBm
    threshold once per 100 ms period.
    """
    smbytes, n_rounds = 24, 5
    times, values = monitor_rssi_trace(
        smbytes=smbytes, n_rounds=n_rounds, rng=spawn(profile.seed, "mote-rssi")
    )
    threshold = -60.0
    above = values >= threshold
    # Count contiguous above-threshold episodes (one expected per round).
    episodes = int(((above[1:] & ~above[:-1]).sum()) + int(above[0]))
    table = TextTable(
        ["quantity", "value"],
        title=f"Monitor RSSI moving average, SMBytes={smbytes} "
        f"({n_rounds} scream rounds, logged every 3rd sample)",
    )
    table.add_row("samples logged", len(times))
    table.add_row("baseline level (dBm)", f"{np.median(values[~above]):.1f}")
    table.add_row("peak level (dBm)", f"{values.max():.1f}")
    table.add_row("detection threshold (dBm)", f"{threshold:.1f}")
    table.add_row("above-threshold episodes", episodes)
    table.add_row("expected episodes", n_rounds)
    return table
