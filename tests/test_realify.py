import math

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


@pytest.mark.parametrize("shifts", [[-0.8], [-0.7 + 2.3j, -0.7 - 2.3j],
                                    [-0.7 - 2.3j, -0.7 + 2.3j]])
def test_unit_blocks_closed_form(shifts):
    """A unit carries its one-channel blocks, read-only, in closed form:
    s = -a and l = -sqrt(-2a) for a real shift a; for a pair a + b i,
    whichever of the two is given first, s = [[-2a, -b g], [b g, 0]] and
    l = [-2 phi, 0] with phi = sqrt(-a) and g = sqrt(1 + (a/b)^2).  Its
    m-channel blocks are those times I_m."""
    unit, = as_units(shifts)
    a, b = unit.value.real, unit.value.imag
    assert b == shifts[0].imag
    if unit.is_pair:
        g = math.sqrt(1.0 + (a / b) ** 2)
        s, l = [[-2.0 * a, -b * g], [b * g, 0.0]], [[-2.0 * math.sqrt(-a), 0.0]]
    else:
        s, l = [[-a]], [[-math.sqrt(-2.0 * a)]]
    np.testing.assert_allclose(unit.s, s, rtol=1e-15, atol=0)
    np.testing.assert_allclose(unit.l, l, rtol=1e-15, atol=0)
    for block in (unit.s, unit.l):
        with pytest.raises(ValueError):
            block[0, 0] = 1.0
    for got, one in zip(lyap_sl(unit, 3), (unit.s, unit.l)):
        np.testing.assert_array_equal(got, np.kron(one, np.eye(3)))
