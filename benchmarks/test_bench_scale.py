"""Bench for the sparse-interference scaling sweep (E13).

Runs the nodes-vs-peak-RSS-vs-epoch-wall sweep at the bench profile (2.5k
and 10k nodes, dense baseline at both) and records the comparison table.
Beyond the snapshot, asserts the PR's headlines at the 10^4-node point:

* the sparse backend cuts the *end-to-end per-epoch wall* — (setup +
  engine) / epochs, where the dense ``O(n^2)`` gain-matrix materialization
  lives — by at least 5x;
* the sparse backend's memory footprint grows sub-quadratically: its
  stored nonzeros and its measured peak RSS both grow far slower than the
  dense backend's across the 2.5k -> 10k step (node count x4: dense state
  grows ~x16, sparse ~x4), and at 10^4 nodes the dense peak RSS is >= 5x
  the sparse peak.

* every schedule the sparse backend played is truth-feasible: the exact
  per-slot re-check finds 0 violations at both sizes.

Timings and RSS are host facts, so the committed snapshot masks them
(``scale.VOLATILE_COLUMNS``); the assertions read the live measurements.
"""

import pytest

from repro.experiments import scale


def _by_key(points):
    return {(p["n"], p["backend"]): p for p in points}


@pytest.mark.benchmark(group="scale")
def test_scale_sweep_memory_and_wall_budgets(benchmark, bench_profile, save_table):
    points = benchmark.pedantic(
        scale.scale_points, args=(bench_profile,), rounds=1, iterations=1
    )
    table = scale.scale_table(points, bench_profile)
    save_table("scale", table, volatile=scale.VOLATILE_COLUMNS)

    by_key = _by_key(points)
    small = min(side * side for side in bench_profile.scale_grid_sides)
    big = max(side * side for side in bench_profile.scale_grid_sides)
    assert big >= 10_000, "bench sweep must include the 10^4-node point"
    assert (big, "dense") in by_key, (
        "bench profile must keep the dense baseline alive at the 10^4-node "
        "point — that comparison is the PR's headline"
    )

    dense_big = by_key[(big, "dense")]
    sparse_big = by_key[(big, "sparse")]
    dense_small = by_key[(small, "dense")]
    sparse_small = by_key[(small, "sparse")]

    # --- >= 5x end-to-end per-epoch wall cut at 10^4 nodes.
    wall_ratio = scale.epoch_wall_s(dense_big) / max(
        scale.epoch_wall_s(sparse_big), 1e-9
    )
    assert wall_ratio >= 5.0, (
        f"sparse backend should cut the end-to-end per-epoch wall >= 5x at "
        f"{big} nodes, measured {wall_ratio:.1f}x "
        f"(dense {scale.epoch_wall_s(dense_big):.2f}s vs sparse "
        f"{scale.epoch_wall_s(sparse_big):.2f}s)"
    )

    # --- Stored state grows ~linearly, not quadratically (deterministic:
    # nnz counts pairs within the fixed cutoff at fixed density).
    node_ratio = big / small
    nnz_growth = sparse_big["nnz"] / sparse_small["nnz"]
    dense_growth = dense_big["nnz"] / dense_small["nnz"]  # exactly node_ratio^2
    assert nnz_growth <= 1.5 * node_ratio, (
        f"sparse nnz should grow ~linearly with n (x{node_ratio:.0f} nodes -> "
        f"<= x{1.5 * node_ratio:.0f} nnz), measured x{nnz_growth:.1f}"
    )
    assert nnz_growth < dense_growth / 2

    # --- Measured peak RSS: far below dense at 10^4 nodes, and growing
    # far slower across the sweep (RSS has interpreter noise, so the
    # bounds are looser than the nnz ones).
    assert dense_big["rss_mib"] >= 5.0 * max(sparse_big["rss_mib"], 1.0), (
        f"dense peak RSS at {big} nodes ({dense_big['rss_mib']:.0f} MiB) "
        f"should be >= 5x the sparse peak ({sparse_big['rss_mib']:.0f} MiB)"
    )
    rss_growth = sparse_big["rss_mib"] / max(sparse_small["rss_mib"], 1.0)
    dense_rss_growth = dense_big["rss_mib"] / max(dense_small["rss_mib"], 1.0)
    assert rss_growth <= 2.0 * node_ratio, (
        f"sparse peak RSS should grow sub-quadratically across "
        f"{small} -> {big} nodes, measured x{rss_growth:.1f}"
    )
    assert rss_growth < dense_rss_growth, (
        f"sparse RSS growth (x{rss_growth:.1f}) should stay below dense "
        f"(x{dense_rss_growth:.1f}) across {small} -> {big} nodes"
    )

    # --- The workload really ran on both backends (served traffic, built
    # schedules) — the wall numbers must price real work, not empty loops.
    for point in points:
        assert point["epochs"] == scale.SCALE_EPOCHS
        assert point["schedule_len"] > 0
        assert point["delivered"] > 0

    # --- Every schedule the sparse backend played decodes under the exact
    # model (the harness's own re-check, repro.phy.truth) — and it took
    # repairs to get there: the floor alone under-provisions at this scale.
    for point in points:
        if point["backend"] == "sparse":
            assert point["truth_violations"] == 0, point
            assert point["repaired_tx"] > 0, point
