"""Bench for the in-band control-plane pricing experiment (E11).

Re-measures the E8 (incremental), E9 (sharded), and E10 (admission)
headlines under the shared :mod:`repro.core.controlplane` pricing — the
free idealization (all message classes at 0 bytes) against the honest
default prices — and records the comparison table.  Beyond the snapshot,
asserts the PR's survival headline:

* the E8 incremental advantage survives honest pricing: the priced
  ``patch`` policy's amortized overhead still sits >= 2x below
  always-reschedule;
* pricing never reports *less* overhead than the free idealization at the
  same operating point (control charges only ever add air);
* the idealizations were hiding real traffic: every previously-free layer
  books a nonzero message count, and the priced variants book nonzero
  control air;
* the E10 knee tracker still holds the overload stable, with sessions
  blocked, once its signaling and observables are charged.
"""

import pytest

from repro.experiments.controlplane import (
    CONTROLPLANE_ADMISSION_FACTOR,
    controlplane_experiment,
)

#: Column indices of the E11 table.
GOODPUT, OVERHEAD, CONTROL_SLOTS, CONTROL_MS, MSGS, BLOCKING, STABLE = (
    3,
    4,
    5,
    6,
    7,
    8,
    10,
)


def _rows(table):
    """Map (headline, variant, operating point) -> row."""
    return {(row[0], row[1], row[2]): row for row in table._rows}


@pytest.mark.benchmark(group="traffic")
def test_control_plane_pricing_preserves_the_headlines(
    benchmark, bench_profile, save_table
):
    table = benchmark.pedantic(
        controlplane_experiment, args=(bench_profile,), rounds=1, iterations=1
    )
    save_table("controlplane", table, volatile=("compute (s)",))

    factors = bench_profile.controlplane_scale_factors
    # Per headline: E8 = 2 policies x 2 variants + 2 advantage rows; E9 +
    # E10 = 2 each; price-scale sweep = 2 policies x factors + advantage per
    # factor + the flip row.
    assert table.n_rows == 4 + 2 + 2 + 2 + 3 * len(factors) + 1
    rows = _rows(table)

    lam = f"λ={bench_profile.controlplane_lambda:g}"
    tracker_op = f"knee-tracker {CONTROLPLANE_ADMISSION_FACTOR:g}x knee"
    e8 = lambda variant, policy: rows[("E8 incremental", variant, f"{policy} {lam}")]

    # --- The E8 amortization survives honest pricing (the acceptance bar).
    for variant in ("free", "priced"):
        advantage = rows[
            ("E8 incremental", variant, "always/patch advantage")
        ][OVERHEAD]
        assert advantage.endswith("x")
        assert float(advantage[:-1]) >= 2.0, (
            f"the incremental advantage should survive {variant} accounting: "
            f"always-reschedule must stay >= 2x the patch policy's amortized "
            f"overhead, measured {advantage}"
        )

    # --- Pricing is monotone vs the free idealization, never below it.
    for (headline, variant, op), row in rows.items():
        if variant != "priced" or row[GOODPUT] == "-":
            continue
        free_row = rows[(headline, "free", op)]
        assert float(row[OVERHEAD]) >= float(free_row[OVERHEAD]), (
            f"priced overhead below the free idealization at {headline}/{op}"
        )
        assert float(free_row[CONTROL_MS]) == 0.0
        assert float(free_row[CONTROL_SLOTS]) == 0.0

    # --- Each retired idealization was hiding real messages, and the
    # priced variants pay for them in air.
    for headline, op in (
        ("E8 incremental", f"patch {lam}"),
        (
            "E9 sharded",
            next(op for h, v, op in rows if h == "E9 sharded" and v == "priced"),
        ),
        ("E10 admission", tracker_op),
    ):
        assert int(rows[(headline, "free", op)][MSGS]) > 0, (
            f"{headline} should book control messages even when free"
        )
        assert float(rows[(headline, "priced", op)][CONTROL_MS]) > 0.0, (
            f"{headline} priced run should charge nonzero control air"
        )

    # --- Always-reschedule has no patching control plane: nothing booked.
    assert int(e8("priced", "always")[MSGS]) == 0

    # --- The price-scale sweep: patching's advantage decays monotonically
    # as messages get dearer, matches the honest-price advantage at 1x, and
    # the flip row reports where (or whether) it inverted in the sweep.
    ratios = [
        float(rows[("E8 price scale", f"{f:g}x", "always/patch advantage")][
            OVERHEAD
        ].rstrip("x"))
        for f in sorted(factors)
    ]
    assert all(a >= b for a, b in zip(ratios, ratios[1:])), (
        f"the always/patch advantage should be non-increasing in the price "
        f"scale, got {ratios}"
    )
    if 1.0 in factors:
        priced_advantage = float(
            rows[("E8 incremental", "priced", "always/patch advantage")][
                OVERHEAD
            ].rstrip("x")
        )
        assert ratios[0] == priced_advantage
    flip = rows[("E8 price scale", "flip", "advantage < 1 at")][OVERHEAD]
    if ratios[-1] < 1.0:
        assert flip.endswith("x prices")
    else:
        assert flip == "none swept"

    # --- E10: the knee tracker still controls under honest pricing.
    priced_e10 = rows[("E10 admission", "priced", tracker_op)]
    assert priced_e10[STABLE] == "yes", (
        "the knee tracker should hold a 2x overload stable under priced "
        "signaling and observable collection"
    )
    assert float(priced_e10[BLOCKING].rstrip("%")) > 0
