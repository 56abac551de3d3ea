"""Bench for the incremental-rescheduling experiment (E8).

Runs the FDD closed loop on the 8x8 grid under the three rescheduling
policies — re-run every epoch, drift-threshold caching, and caching with
schedule patching — and records the policy table.  Beyond the snapshot,
asserts the PR's economy headline: at a stable operating rate the caching
policies pay a fraction of the always-recompute protocol overhead (>= 3x
cheaper with patching) while the measured stability knee stays where the
always policy puts it.
"""

import pytest

from repro.experiments.heavy_traffic import TRAFFIC_POLICIES, incremental_experiment

#: The table's sweep steps, used for the knee-drift tolerance.
def _sweep_steps(profile):
    return sorted(profile.traffic_lambdas)


def _cells(table):
    """(policy, lambda) -> row for the data rows; policy -> knee otherwise."""
    data, knees = {}, {}
    for row in table._rows:
        if row[1] == "knee":
            knees[row[0]] = row[-1]
        else:
            data[(row[0], row[1])] = row
    return data, knees


@pytest.mark.benchmark(group="traffic")
def test_incremental_rescheduling_amortizes_overhead(
    benchmark, bench_profile, save_table
):
    table = benchmark.pedantic(
        incremental_experiment, args=(bench_profile,), rounds=1, iterations=1
    )
    save_table("incremental", table)

    rates = len(bench_profile.traffic_lambdas)
    policies = len(TRAFFIC_POLICIES)
    assert table.n_rows == policies * rates + policies

    data, knees = _cells(table)
    assert set(knees) == {"always", "drift-threshold", "patch"}
    assert knees["always"] != "-", "FDD unstable even at the lowest swept rate"

    # --- Overhead economics at a stable rate (lambda = 0.0145 is stable for
    # FDD under every policy on this grid).  Column 4 is total overhead slots.
    stable_rate = "0.0145"
    always = int(data[("always", stable_rate)][4])
    drift = int(data[("drift-threshold", stable_rate)][4])
    patch = int(data[("patch", stable_rate)][4])
    assert data[("always", stable_rate)][-1].startswith("yes")
    assert data[("patch", stable_rate)][-1].startswith("yes")
    assert always >= 3 * patch, (
        f"caching with patching should cut FDD's protocol overhead >= 3x at a "
        f"stable rate: always paid {always} slots, patch paid {patch}"
    )
    assert drift < always, (
        f"drift-threshold caching should pay less overhead than re-running "
        f"every epoch: {drift} vs {always} slots"
    )
    # The always policy never uses the cache.
    assert all(
        data[("always", f"{rate:g}")][6] == "0%"
        for rate in bench_profile.traffic_lambdas
    )

    # --- The knee must not move by more than one sweep step under caching.
    steps = _sweep_steps(bench_profile)

    def step_index(cell):
        return steps.index(float(cell)) if cell != "-" else -1

    base = step_index(knees["always"])
    for policy in ("drift-threshold", "patch"):
        assert knees[policy] != "-", f"{policy} unstable everywhere"
        assert abs(step_index(knees[policy]) - base) <= 1, (
            f"{policy} moved the stability knee more than one sweep step: "
            f"{knees[policy]} vs always {knees['always']}"
        )
