"""Shared utilities: reproducible RNG management and argument validation."""

from repro.util.rng import ensure_rng, spawn
from repro.util.validation import (
    check_finite_array,
    check_positive,
    check_non_negative,
    check_probability,
    check_integer_in_range,
)

__all__ = [
    "ensure_rng",
    "spawn",
    "check_finite_array",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_integer_in_range",
]
