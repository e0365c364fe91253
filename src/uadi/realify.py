"""Realification bookkeeping for ADI iterations with complex shift pairs.

A shift "unit" is either one real negative shift or one complex shift in the
open left half-plane standing for itself plus its conjugate.  Every unit
contributes a real basis block: one column block for a real shift, two for a
pair.  The (s, l) companion blocks below encode the unit inside the shift
bookkeeping matrices so that all stored ADI quantities stay real and the
identity  A V - E V S + B_perp L = 0  holds exactly.  The Sylvester case
blocks (sylv_case, sylv_sl) serve only the reference classic.fadi: the
engine groups Sylvester shifts with the lyap_sl blocks of both sides.
"""

import math

import numpy as np

from .errors import ShiftCollision, UnpairedComplexShift, UnstableShift

__all__ = [
    "ShiftUnit",
    "as_units",
    "expand_units",
    "check_stable",
    "lyap_sl",
    "realified_columns",
    "sylv_case",
    "sylv_sl",
]


class ShiftUnit:
    """One real shift or one conjugate pair, always left-half-plane."""

    __slots__ = ("value", "is_pair")

    def __init__(self, value):
        value = complex(value)
        check_stable(value)
        self.value = value
        self.is_pair = value.imag != 0.0

    @property
    def width_factor(self):
        return 2 if self.is_pair else 1

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
        if s.imag == 0.0:
            units.append(ShiftUnit(s))
            i += 1
        else:
            if i + 1 >= len(seq) or seq[i + 1] != s.conjugate():
                raise UnpairedComplexShift(
                    f"complex shift {s} is not followed by its conjugate"
                )
            units.append(ShiftUnit(s))
            i += 2
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
    """Companion blocks (s, l) of one Lyapunov-ADI unit, realified.

    Real shift a:        s = -a I,  l = -sqrt(-2a) I  (m x m each).
    Conjugate pair:      s = [[-2a, -b g], [b g, 0]] (x) I,
                         l = [-2 phi I, 0]           (2m wide),
    with phi = sqrt(-a), delta = a/b, g = sqrt(1 + delta^2).  Both satisfy
    s^T + s = l^T l, which is what keeps the implicit middle matrix equal to
    the identity.
    """
    I = np.eye(m)
    if not unit.is_pair:
        a = unit.value.real
        s = -a * I
        l = -math.sqrt(-2.0 * a) * I
        return s, l
    a, b, phi, delta, g = _pair_parts(unit.value)
    s2 = np.array([[-2.0 * a, -b * g], [b * g, 0.0]])
    s = np.kron(s2, I)
    l = np.hstack([-2.0 * phi * I, np.zeros((m, m))])
    return s, l


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


def sylv_case(alpha_units, beta_units):
    """Classify a (alpha, beta) unit group into realification case 1..4.

    Case 1: (real, real); case 2: (pair, pair); case 3: (real+real, pair);
    case 4: (pair, real+real).  alpha_units/beta_units are the units the
    group consumes on each side.
    """
    na = sum(u.is_pair for u in alpha_units)
    nb = sum(u.is_pair for u in beta_units)
    if len(alpha_units) == 1 and len(beta_units) == 1:
        if na == 0 and nb == 0:
            return 1
        if na == 1 and nb == 1:
            return 2
    if len(alpha_units) == 2 and na == 0 and len(beta_units) == 1 and nb == 1:
        return 3
    if len(alpha_units) == 1 and na == 1 and len(beta_units) == 2 and nb == 0:
        return 4
    raise UnpairedComplexShift(
        f"units {alpha_units} / {beta_units} do not form a valid case"
    )


def _rot_block(alpha, m):
    a, b = alpha.real, alpha.imag
    I = np.eye(m)
    return np.block([[-a * I, -b * I], [b * I, -a * I]])


def _chain_block(a1, a2, m):
    I = np.eye(m)
    return np.block([[-a1 * I, I], [np.zeros((m, m)), -a2 * I]])


def sylv_sl(case, alpha_units, beta_units, m):
    """Companion blocks (s_v, l_v, s_w, l_w) of one Sylvester-ADI group.

    Follows the case-wise realification of factored ADI; all blocks real,
    of width m (case 1) or 2m (cases 2-4) with l = [-I, 0].
    """
    I = np.eye(m)
    lwide = np.hstack([-I, np.zeros((m, m))])
    for au in alpha_units:
        for bu in beta_units:
            for av in au.shifts():
                for bv in bu.shifts():
                    if abs(complex(av) + complex(bv)) < 1e-14 * (1 + abs(av)):
                        raise ShiftCollision(f"alpha={av} equals -beta={bv}")
    if case == 1:
        a = alpha_units[0].value.real
        b = beta_units[0].value.real
        return -a * I, -I, -b * I, -I
    if case == 2:
        sv = _rot_block(alpha_units[0].value, m)
        sw = _rot_block(beta_units[0].value.conjugate(), m)
        return sv, lwide, sw, lwide
    if case == 3:
        a1 = alpha_units[0].value.real
        a2 = alpha_units[1].value.real
        sv = _chain_block(a1, a2, m)
        sw = _rot_block(beta_units[0].value.conjugate(), m)
        return sv, lwide, sw, lwide
    if case == 4:
        sv = _rot_block(alpha_units[0].value, m)
        b1 = beta_units[0].value.real
        b2 = beta_units[1].value.real
        sw = _chain_block(b1, b2, m)
        return sv, lwide, sw, lwide
    raise ValueError(f"unknown case {case}")


def sylv_basis_block(case, side, units, solver, rhs_or_state):
    """Real factored-ADI basis block for one side of a case group.

    ``solver(shift, rhs)`` performs the large shifted solve; for the v side
    the shifts are the alphas against (A1 + alpha E1), for the w side the
    betas against (A2^T + beta E2^T).  ``rhs_or_state`` is (rhs, E) where E
    is needed for the second column of a two-real-shift chain.
    """
    rhs, Emul = rhs_or_state
    units = list(units)
    if case == 1:
        return solver(units[0].value.real, rhs)
    pairlike = (case == 2) or (case == 3 and side == "w") or (case == 4 and side == "v")
    if pairlike:
        shift = units[0].value if side == "v" else units[0].value.conjugate()
        y = solver(shift, rhs)
        return np.hstack([np.real(y), np.imag(y)])
    # two-real-shift chain (case 3 v side / case 4 w side)
    a1 = units[0].value.real
    a2 = units[1].value.real
    y1 = np.real(solver(a1, rhs))
    y2 = np.real(solver(a2, Emul(y1)))
    return np.hstack([y1, y2])
