"""Benchmark fixtures: profiles and result persistence.

Every figure/table benchmark runs its experiment harness at the *bench*
profile (sized to keep the whole suite in minutes), prints the regenerated
series, and writes it under ``benchmarks/results/`` for inspection.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import ExperimentProfile

RESULTS_DIR = Path(__file__).parent / "results"

#: Reduced sweeps for benchmarking: full algorithm fidelity, fewer points.
BENCH = ExperimentProfile(
    name="bench",
    densities=(1000.0, 5000.0, 25000.0),
    repetitions=2,
    pdd_probabilities=(0.2, 0.8),
    mote_screams=400,
    mote_smbytes=(5, 8, 10, 15, 20, 24),
    exec_time_sweep=(5, 15, 30, 60),
    skew_sweep_s=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
    id_scaling_sizes=(16, 36, 64, 100),
    traffic_lambdas=(0.006, 0.0145, 0.019),
    traffic_epochs=10,
    traffic_epoch_slots=300,
    # E13 scale sweep: 2.5k and 10k nodes, dense baseline at both (10k is
    # where the >=5x end-to-end win is asserted; the 10^5 point is full-only).
    scale_grid_sides=(50, 100),
    scale_dense_max_nodes=10_000,
    # Every bench run emits its observability run file (spans + metrics)
    # under benchmarks/results/<experiment>.jsonl; CI validates and
    # summarizes them (python -m repro.obs).  Passive by construction —
    # the differential tests prove obs never changes engine results.
    obs_level="spans",
    obs_jsonl=str(RESULTS_DIR),
    seed=20080617,
)


@pytest.fixture(scope="session")
def bench_profile() -> ExperimentProfile:
    return BENCH


@pytest.fixture(scope="session")
def save_table():
    """Persist a rendered table under benchmarks/results/<name>.txt.

    ``volatile`` names columns whose cells are not run-to-run reproducible
    (wall-clock timings, host-dependent speedups); they are masked with
    ``~`` in the *persisted* snapshot — via
    :meth:`~repro.analysis.tables.TextTable.redacted` — so committed
    results only ever diff when the science changes.  The full table,
    volatile cells included, is still printed to the log (and the caller
    keeps the unmasked object for assertions).
    """

    def _save(name: str, table, volatile: tuple[str, ...] = ()) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        persisted = table.redacted(volatile) if volatile else table
        (RESULTS_DIR / f"{name}.txt").write_text(persisted.render() + "\n")
        print(f"\n{table.render()}")

    return _save
