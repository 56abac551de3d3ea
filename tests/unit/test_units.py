"""Unit conversions: dBm -> mW."""

import numpy as np
import pytest

from repro.phy.units import dbm_to_mw


def test_dbm_to_mw_reference_points():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(20.0) == pytest.approx(100.0)
    assert dbm_to_mw(-30.0) == pytest.approx(1e-3)


def test_array_conversions_elementwise():
    arr = np.array([-10.0, 0.0, 10.0])
    out = dbm_to_mw(arr)
    assert out == pytest.approx([0.1, 1.0, 10.0])
    assert [dbm_to_mw(float(dbm)) for dbm in arr] == pytest.approx(out)
