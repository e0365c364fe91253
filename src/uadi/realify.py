"""Realification bookkeeping for ADI iterations with complex shift pairs.

A shift "unit" is either one real negative shift or one complex shift in the
open left half-plane standing for itself plus its conjugate.  Every unit
contributes a real basis block: one column block for a real shift, two for a
pair.  The (s, l) companion blocks a unit carries, at one input channel
(every channel sees the same shifts), encode it inside the shift bookkeeping
matrices so that all stored ADI quantities stay real and the identity
A V - E V S + B_perp L = 0  holds exactly.  The engine groups Sylvester
shifts with the (S, L) blocks of both sides; the reference classic.fadi
needs no realification, it runs in complex arithmetic.
"""

import math

import numpy as np

from .errors import UnpairedComplexShift, UnstableShift

__all__ = [
    "ShiftUnit",
    "as_units",
    "expand_units",
    "check_stable",
    "lyap_sl",
    "realified_columns",
]


class ShiftUnit:
    """One real shift or one conjugate pair, always left-half-plane, with
    its one-channel companion blocks ``s`` and ``l``, read-only:
    Real shift a:        s = -a,                          l = -sqrt(-2a).
    Conjugate pair:      s = [[-2a, -b g], [b g, 0]],     l = [-2 phi, 0],
    with a + b i the value, phi = sqrt(-a), delta = a/b, g = sqrt(1 + delta^2).
    Both satisfy s^T + s = l^T l, which is what keeps the implicit middle
    matrix equal to the identity.
    """

    __slots__ = ("value", "is_pair", "s", "l")

    def __init__(self, value):
        value = complex(value)
        check_stable(value)
        self.value = value
        self.is_pair = value.imag != 0.0
        if self.is_pair:
            a, b, phi, _, g = _pair_parts(value)
            self.s = np.array([[-2.0 * a, -b * g], [b * g, 0.0]])
            self.l = np.array([[-2.0 * phi, 0.0]])
        else:
            self.s = np.array([[-value.real]])
            self.l = np.array([[-math.sqrt(-2.0 * value.real)]])
        self.s.flags.writeable = self.l.flags.writeable = False

    width_factor = property(lambda self: len(self.s))

    def shifts(self):
        if self.is_pair:
            return [self.value, self.value.conjugate()]
        return [self.value.real]

    def __repr__(self):
        return f"ShiftUnit({self.value!r})"


def check_stable(shift):
    shift = complex(shift)
    if not (math.isfinite(shift.real) and math.isfinite(shift.imag)):
        raise UnstableShift(f"shift {shift} is not finite")
    if shift.real >= 0:
        raise UnstableShift(f"shift {shift} has nonnegative real part")


def as_units(shifts):
    """Group an explicit shift list into units.

    Complex entries must be immediately followed by their conjugate
    (UnpairedComplexShift otherwise); real entries stand alone.
    """
    units = []
    seq = [complex(s) for s in shifts]
    i = 0
    while i < len(seq):
        s = seq[i]
        if s.imag and (i + 1 >= len(seq) or seq[i + 1] != s.conjugate()):
            raise UnpairedComplexShift(
                f"complex shift {s} is not followed by its conjugate"
            )
        units.append(ShiftUnit(s))
        i += 2 if s.imag else 1
    return units


def expand_units(units):
    """Flatten units back into the explicit shift sequence."""
    out = []
    for u in units:
        out.extend(u.shifts())
    return out


def _pair_parts(alpha):
    a, b = alpha.real, alpha.imag
    phi = math.sqrt(-a)
    delta = a / b
    g = math.sqrt(1.0 + delta * delta)
    return a, b, phi, delta, g


def lyap_sl(unit, m):
    """Companion blocks (s, l) of one Lyapunov-ADI unit on m input
    channels: the unit's one-channel blocks times I_m."""
    I = np.eye(m)
    return np.kron(unit.s, I), np.kron(unit.l, I)


def realified_columns(unit, v):
    """Real basis block for one solve direction v of (A + alpha E) v = rhs.

    Real shift: sqrt(-2a) v.  Pair: the two columns
    [2 phi (Re v + delta Im v), 2 phi g Im v].
    """
    if not unit.is_pair:
        a = unit.value.real
        return math.sqrt(-2.0 * a) * np.real(v)
    _, _, phi, delta, g = _pair_parts(unit.value)
    vr, vi = np.real(v), np.imag(v)
    return np.hstack([2.0 * phi * (vr + delta * vi), 2.0 * phi * g * vi])
