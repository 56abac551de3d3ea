"""Argument validation helpers with consistent error messages.

The library is configuration-heavy (radio parameters, protocol constants,
sweep definitions); these helpers keep constructor validation terse and the
error messages uniform, e.g. ``beta must be positive, got -1.0``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Raise :class:`ValueError` unless ``value`` is a finite number > 0."""
    _check_finite_number(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


def check_non_negative(name: str, value: float) -> float:
    """Raise :class:`ValueError` unless ``value`` is a finite number >= 0."""
    _check_finite_number(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return float(value)


def check_probability(name: str, value: float) -> float:
    """Raise :class:`ValueError` unless ``value`` lies in [0, 1]."""
    _check_finite_number(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


def check_integer_in_range(
    name: str,
    value: Any,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    """Raise unless ``value`` is an integer inside ``[minimum, maximum]``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def check_finite_array(name: str, values: np.ndarray) -> None:
    """Raise :class:`ValueError` if ``values`` holds a NaN or an infinity.

    The phy boundary's guard: comparisons against NaN are all False, so a
    non-finite position or power slips through every ``x <= 0`` range check
    and, downstream, passes every ``~(signal < threshold)`` admission test.
    """
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite (no NaN or inf)")


def _check_finite_number(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
