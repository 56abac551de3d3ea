"""Reproducible random-number management.

Every stochastic component in the library takes an explicit
:class:`numpy.random.Generator`.  Experiments derive independent generators
for each (scenario, repetition, purpose) triple from a single root seed with
:func:`spawn`, so any individual data point in any figure can be regenerated
in isolation.
"""

from __future__ import annotations

import numpy as np

#: Default root seed used by experiments when none is given.
DEFAULT_SEED = 20080617  # ICDCS 2008 opening day.


def ensure_rng(seed_or_rng: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (uses :data:`DEFAULT_SEED`), an integer seed, or an
    existing generator (returned unchanged).
    """
    if seed_or_rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if isinstance(seed_or_rng, (int, np.integer)):
        return np.random.default_rng(int(seed_or_rng))
    raise TypeError(
        f"expected None, int, or numpy Generator, got {type(seed_or_rng).__name__}"
    )


def freeze_root(seed_or_rng: int | np.random.Generator | None) -> int:
    """Collapse ``seed_or_rng`` into a fixed entropy integer, once.

    Components that must re-derive identical child streams on every call
    (e.g. per-epoch workload draws) freeze their root at construction time:
    ``None`` becomes :data:`DEFAULT_SEED`, an integer passes through, and a
    live generator is consulted exactly once.  The mapping mirrors
    :func:`spawn`'s own root handling, so frozen and unfrozen call sites
    derive the same streams for ``None``/int roots.
    """
    if seed_or_rng is None:
        return DEFAULT_SEED
    if isinstance(seed_or_rng, np.random.Generator):
        return int(seed_or_rng.integers(0, 2**63 - 1))
    if isinstance(seed_or_rng, (int, np.integer)):
        return int(seed_or_rng)
    raise TypeError(
        f"expected None, int, or numpy Generator, got {type(seed_or_rng).__name__}"
    )


def spawn(root: int | np.random.Generator | None, *key: int | str) -> np.random.Generator:
    """Derive an independent generator from ``root`` and a hashable key path.

    The derivation is deterministic: the same ``(root, key)`` always produces
    the same stream, and distinct keys produce statistically independent
    streams (via :class:`numpy.random.SeedSequence` entropy spawning).

    String keys are folded to stable 32-bit integers so call sites can use
    readable labels, e.g. ``spawn(seed, "demand", rep)``.
    """
    entropy = freeze_root(root)
    folded = [_fold_key(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence([entropy, *folded]))


def _fold_key(key: int | str | float | bool) -> int:
    """Map a key component to a stable non-negative 32-bit integer."""
    if isinstance(key, (bool, np.bool_)):
        return int(key)
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, (float, np.floating)):
        key = repr(float(key))  # stable decimal form, fold as a string
    if isinstance(key, str):
        # FNV-1a, stable across processes (unlike built-in hash()).
        acc = 2166136261
        for byte in key.encode("utf-8"):
            acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
        return acc
    raise TypeError(
        f"rng key components must be int, float, bool or str, got "
        f"{type(key).__name__}"
    )
