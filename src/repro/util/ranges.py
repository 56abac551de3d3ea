"""Vectorised expansion of many index ranges at once, and the cut back.

Grid-cell runs and frontier neighbor lists are both "for every
``t``, the indices ``lo[t] .. hi[t]-1``"; expanding them with one
``repeat`` + ``arange`` keeps such walks out of the Python interpreter.
"""

from __future__ import annotations

import numpy as np


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``arange(lo[t], hi[t])`` over every ``t``.

    Returns ``(owner, flat)``: ``flat`` is the concatenation, ``owner[k]``
    the ``t`` whose range produced ``flat[k]``.  Empty ranges contribute
    nothing; ``hi[t] < lo[t]`` is a :class:`ValueError` (from ``repeat``).
    """
    lo = np.asarray(lo, dtype=np.intp)
    lens = np.asarray(hi, dtype=np.intp) - lo
    owner = np.repeat(np.arange(lens.size, dtype=np.intp), lens)
    ends = np.cumsum(lens)
    flat = np.arange(owner.size, dtype=np.intp) + np.repeat(lo - (ends - lens), lens)
    return owner, flat


def split_at(flat: np.ndarray, ends: list[int]) -> list[np.ndarray]:
    """Cut ``flat`` into consecutive pieces ending at ``ends`` (views)."""
    return [flat[a:b] for a, b in zip([0, *ends], ends)]
