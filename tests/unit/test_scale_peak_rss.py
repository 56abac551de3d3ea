"""E13's peak-RSS cells read what each spawned child itself touched."""

import numpy as np

from repro.experiments import scale


def test_spawned_child_reports_its_own_peak_not_the_parents():
    """A do-nothing child of a parent holding 200 MiB peaks far below it.

    ``ru_maxrss`` would read the parent's high-water mark here: Linux
    carries it across fork + exec, and the baseline child then cancels the
    real cost of every sweep point it is subtracted from.
    """
    ballast = np.ones(200 * 2**20 // 8)  # 200 MiB, every page touched
    baseline_mib = scale._in_subprocess(scale._child_baseline, ()) / 1024
    assert ballast[-1] == 1.0
    assert baseline_mib < 100, f"baseline child peaked at {baseline_mib:.0f} MiB"
