"""Statistics helpers: mean with Student-t confidence intervals.

"All results reported here are computed with 95% confidence intervals"
(Section VI-A), so every experiment row carries one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Two-sided probability mass of every interval the paper reports.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with a symmetric 95 % confidence half-width."""

    mean: float
    half_width: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.2f}"


def mean_ci(samples) -> ConfidenceInterval:
    """Sample mean with a 95 % Student-t confidence interval.

    A single sample yields a zero-width interval (no variance estimate);
    an empty sample set is an error.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    mean = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(mean, 0.0, 1)
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size))
    return ConfidenceInterval(mean, _t_quantile(arr.size - 1) * sem, int(arr.size))


def _t_quantile(df: int) -> float:
    """The t with P(|T| <= t) = CONFIDENCE for Student's T at integer ``df``.

    P(|T| <= t) in closed form (Abramowitz & Stegun 26.7.3 / 26.7.4), with
    theta = atan(t / sqrt(df)):

    - even df: sin(theta) * sum_k c_k cos(theta)^(2k),
      c_0 = 1, c_k = c_{k-1} (2k - 1) / (2k), k < df / 2;
    - odd df: 2/pi * (theta + sin(theta) cos(theta) * sum_k c_k cos(theta)^(2k)),
      c_0 = 1, c_k = c_{k-1} (2k) / (2k + 1), k < (df - 1) / 2 (no sum at df = 1).

    cos(theta)^(2k) is exp(-k log1p(t^2 / df)), so large df loses nothing to
    a repeated product.  The CDF is inverted by bisection between 1.959
    (below the normal quantile 1.95996, so below every t quantile) and 13
    (above the df = 1 one, 12.71), until the midpoint is one of the ends.
    """
    k = np.arange(1, df // 2)
    ratios = (2 * k - 1) / (2 * k) if df % 2 == 0 else (2 * k) / (2 * k + 1)
    coef = np.cumprod(np.concatenate(([1.0], ratios)))[: df // 2]
    powers = np.arange(coef.size)

    def inside(t: float) -> float:
        theta = math.atan(t / math.sqrt(df))
        # A pairwise sum, not `coef @ ...`: BLAS dot of 5e4 terms took ~8 ms.
        series = float((coef * np.exp(-math.log1p(t * t / df) * powers)).sum())
        if df % 2 == 0:
            return math.sin(theta) * series
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)

    low, high = 1.959, 13.0
    while low < (mid := 0.5 * (low + high)) < high:
        if inside(mid) < CONFIDENCE:
            low = mid
        else:
            high = mid
    return high
