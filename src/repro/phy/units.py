"""Power unit conversion (dBm -> mW).

All internal computations in the library use *linear* milliwatts so that
interference powers can simply be summed; dBm appears only at configuration
boundaries (radio parameters, logs, documentation).
"""

from __future__ import annotations

import numpy as np


def dbm_to_mw(dbm):
    """Convert a power level in dBm to milliwatts.

    Works element-wise on arrays.

    >>> dbm_to_mw(0.0)
    1.0
    >>> round(dbm_to_mw(20.0), 6)
    100.0
    """
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0).item() if np.isscalar(
        dbm
    ) else np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)
