import numpy as np
import pytest

from uadi.errors import UnpairedComplexShift, UnstableShift
from uadi.linalg import shifted_solve
from uadi.realify import (
    ShiftUnit,
    as_units,
    expand_units,
    lyap_sl,
    realified_columns,
)
from uadi.systems import random_stable_system


def test_unit_grouping_roundtrip():
    shifts = [-1.0, -2.0 + 3.0j, -2.0 - 3.0j, -0.5]
    units = as_units(shifts)
    assert [u.is_pair for u in units] == [False, True, False]
    assert expand_units(units) == shifts


def test_unpaired_complex_rejected():
    with pytest.raises(UnpairedComplexShift):
        as_units([-1.0 + 2.0j, -0.5])
    with pytest.raises(UnpairedComplexShift):
        as_units([-1.0 + 2.0j])


def test_unstable_shift_rejected():
    with pytest.raises(UnstableShift):
        ShiftUnit(0.5)
    with pytest.raises(UnstableShift):
        ShiftUnit(0.0 + 1.0j)


@pytest.mark.parametrize("alpha", [-0.8, -0.7 + 2.3j, -3.0 - 0.4j])
def test_lyap_block_identity(alpha):
    """The realified block satisfies A Vb - E Vb s + B l = 0 and the
    companion blocks satisfy s^T + s = l^T l (identity middle matrix)."""
    sys = random_stable_system(14, 2, 2, 3)
    unit = ShiftUnit(alpha)
    s, l = lyap_sl(unit, sys.m)
    np.testing.assert_allclose(s.T + s, l.T @ l, atol=1e-13)
    v = shifted_solve(sys.A, sys.E, unit.value, sys.B)
    Vb = realified_columns(unit, v)
    assert np.isrealobj(Vb)
    res = sys.A @ Vb - sys.E @ Vb @ s + sys.B @ l
    assert np.abs(res).max() < 1e-10


def test_pair_block_eigenvalues():
    unit = ShiftUnit(-1.5 + 4.0j)
    s, _ = lyap_sl(unit, 1)
    w = np.linalg.eigvals(s)
    np.testing.assert_allclose(
        np.sort_complex(w), np.sort_complex(np.array([-unit.value.conjugate(), -unit.value])),
        atol=1e-12,
    )
