"""Statistics helpers: mean with Student-t confidence intervals.

"All results reported here are computed with 95% confidence intervals"
(Section VI-A), so every experiment row carries one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f}"


def mean_ci(samples, confidence: float = 0.95) -> ConfidenceInterval:
    """Sample mean with a Student-t confidence interval.

    A single sample yields a zero-width interval (no variance estimate);
    an empty sample set is an error.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(mean, 0.0, confidence, 1)
    # Imported here, not at module level: scipy.stats costs ~0.4 s and
    # ~40 MiB to load, which every `import repro` would otherwise pay.
    from scipy import stats as sps

    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=arr.size - 1))
    return ConfidenceInterval(mean, t_crit * sem, confidence, int(arr.size))
