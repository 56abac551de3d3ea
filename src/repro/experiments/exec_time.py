"""Execution-time experiments (the paper's Figures 8 and 9).

Both figures price *the same protocol executions* under different timing
parameters, exactly as a packet simulator would: the step tallies of FDD and
PDD runs are converted to seconds by the :class:`~repro.core.timing.TimingModel`.

* Figure 8: execution time vs SCREAM size (bytes) and vs interference
  diameter K — both linear, with PDD several times faster than FDD.
* Figure 9: execution time vs clock-skew bound (log-log) — flat while the
  per-step guard is negligible, then linear; FDD degrades at roughly an
  order of magnitude smaller skew than PDD because it synchronizes more
  often per scheduled slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import mean_ci
from repro.analysis.tables import TextTable
from repro.core.events import StepTally
from repro.core.fdd import fdd_on_network
from repro.core.pdd import pdd_on_network
from repro.core.timing import TimingModel, reprice_scream_slots
from repro.experiments.common import (
    PAPER_PROTOCOL,
    ExperimentProfile,
    grid_scenario,
)
from repro.util.rng import spawn


@dataclass
class ProtocolTallies:
    """Step tallies of FDD and PDD runs on the same scenario instances."""

    fdd: list[StepTally]
    pdd: list[StepTally]
    k: int


def collect_tallies(
    profile: ExperimentProfile, density: float = 5000.0
) -> ProtocolTallies:
    """Run FDD and PDD (p=0.2) once per repetition; keep their step tallies."""
    fdd_tallies: list[StepTally] = []
    pdd_tallies: list[StepTally] = []
    for rep in range(profile.repetitions):
        scenario = grid_scenario(density, rep, seed=profile.seed)
        fdd = fdd_on_network(
            scenario.network,
            scenario.links,
            PAPER_PROTOCOL,
            rng=spawn(profile.seed, "exec-fdd", rep),
        )
        pdd = pdd_on_network(
            scenario.network,
            scenario.links,
            PAPER_PROTOCOL.with_p(0.2),
            rng=spawn(profile.seed, "exec-pdd", rep),
        )
        fdd_tallies.append(fdd.tally)
        pdd_tallies.append(pdd.tally)
    return ProtocolTallies(fdd=fdd_tallies, pdd=pdd_tallies, k=PAPER_PROTOCOL.k)


def exec_time_experiment(
    profile: ExperimentProfile, tallies: ProtocolTallies | None = None
) -> TextTable:
    """E5 — execution time vs SCREAM size and vs interference diameter.

    The four series of the paper's figure: {FDD, PDD} x {SCREAM size sweep
    with K=5, K sweep with SCREAM size 15}.
    """
    tallies = tallies or collect_tallies(profile)
    table = TextTable(
        [
            "size/diameter",
            "FDD vs SMBytes (s)",
            "PDD vs SMBytes (s)",
            "FDD vs K (s)",
            "PDD vs K (s)",
        ],
        title="Execution time vs SCREAM size and interference diameter "
        "(64-node grid)",
    )
    for x in profile.exec_time_sweep:
        timing_bytes = TimingModel(scream_bytes=int(x))
        timing_k = TimingModel(scream_bytes=PAPER_PROTOCOL.smbytes)
        row = [f"{x}"]
        for tally_set in (tallies.fdd, tallies.pdd):
            secs = [timing_bytes.execution_time(t) for t in tally_set]
            row.append(str(mean_ci(secs)))
        for tally_set in (tallies.fdd, tallies.pdd):
            secs = [
                timing_k.execution_time(
                    reprice_scream_slots(t, tallies.k, int(x))
                )
                for t in tally_set
            ]
            row.append(str(mean_ci(secs)))
        table.add_row(*row)
    return table


def clock_skew_experiment(
    profile: ExperimentProfile, tallies: ProtocolTallies | None = None
) -> TextTable:
    """E6 — execution time vs clock-skew bound (both axes log in the paper)."""
    tallies = tallies or collect_tallies(profile)
    table = TextTable(
        ["clock skew (s)", "FDD (s)", "PDD p=0.2 (s)", "FDD/PDD ratio"],
        title="Execution time vs clock-skew bound (64-node grid)",
    )
    for skew in profile.skew_sweep_s:
        timing = TimingModel(
            scream_bytes=PAPER_PROTOCOL.smbytes, skew_bound_s=float(skew)
        )
        fdd_secs = [timing.execution_time(t) for t in tallies.fdd]
        pdd_secs = [timing.execution_time(t) for t in tallies.pdd]
        ratio = float(np.mean(fdd_secs) / np.mean(pdd_secs))
        table.add_row(
            f"{skew:g}",
            str(mean_ci(fdd_secs)),
            str(mean_ci(pdd_secs)),
            f"{ratio:.1f}",
        )
    return table


def skew_tolerance(tally: StepTally) -> float:
    """Largest skew bound keeping execution under 5% of a minute.

    The paper's headline claim: with once-a-minute schedule recomputation,
    PDD stays under 5% overhead up to ~100 µs skew, FDD up to ~10 µs.
    Solves ``execution_time(skew) <= 0.05 * 60 s`` for the skew bound
    (execution time is affine in the skew), with the paper's 15-byte
    SCREAMs.
    """
    budget = 0.05 * 60.0
    scream_bytes = PAPER_PROTOCOL.smbytes
    base = TimingModel(scream_bytes=scream_bytes, skew_bound_s=0.0).execution_time(
        tally
    )
    if base >= budget:
        return 0.0
    slope_model = TimingModel(scream_bytes=scream_bytes, skew_bound_s=1.0)
    slope = slope_model.execution_time(tally) - base  # seconds per skew-second
    return (budget - base) / slope
