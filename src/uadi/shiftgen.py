"""Self-generating ADI shift strategies.

Static lists, the two residual/direction projection strategies, and the
subspace-accelerated strategies: Galerkin dominance ranking per side,
two-sided (Petrov) ranking for balanced truncation, and the alternating
single-shift strategy that prioritizes the Sylvester equation.  The Galerkin
ranking skips Ritz values in the closed right half-plane while a stable one
exists: such values are projection artefacts of a non-normal pencil, not
pole estimates.  Subspace histories are orthonormalized solve-direction
blocks with implicit restart: once a history would exceed its column cap it
is discarded and restarted from the newest block.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import NonFiniteShift, SingularProjectedE, ZeroResidual
from .linalg import small_eig
from .realify import ShiftUnit

logger = logging.getLogger("uadi")

__all__ = [
    "sanitize_shift",
    "DominanceRanking",
    "rank_dominance",
    "next_shifts_projection1",
    "next_shifts_projection2",
    "next_shift_subspace",
    "next_shift_petrov_bt",
    "StaticShiftOracle",
    "ProjectionShiftOracle",
    "SubspaceShiftOracle",
    "PetrovBtShiftOracle",
    "SylvesterAlternatingOracle",
]

INITIAL_SHIFT = -0.001
DEFAULT_CAP = 20


def sanitize_shift(lam):
    """Force a pole estimate into the open left half-plane.

    Positive real parts are sign-flipped; the real part is then pushed to at
    least 1e-8*(1+|lam|) away from the imaginary axis.
    """
    lam = complex(lam)
    if not (np.isfinite(lam.real) and np.isfinite(lam.imag)):
        raise NonFiniteShift(f"cannot sanitize {lam}")
    margin = 1e-8 * (1.0 + abs(lam))
    re = -abs(lam.real)
    if re > -margin:
        re = -margin
    return complex(re, lam.imag)


@dataclass
class DominanceRanking:
    """Eigenvalues with residue norms and dominance scores, sorted."""

    eigenvalues: np.ndarray
    residue_norms: np.ndarray
    scores: np.ndarray
    order: np.ndarray

    def top(self):
        return self.eigenvalues[self.order[0]]


def rank_dominance(eigenvalues, residue_norms):
    """Sort poles by residue-to-damping dominance.

    score_l = ||r_l||^2 / |Re(lambda_l)|; ties broken by larger |Im|, then
    by original index.
    """
    lam = np.asarray(eigenvalues)
    rn = np.asarray(residue_norms, dtype=float)
    damp = np.maximum(np.abs(lam.real), 1e-12 * (1.0 + np.abs(lam)))
    scores = rn ** 2 / damp
    order = np.array(sorted(
        range(len(lam)), key=lambda l: (-scores[l], -abs(lam[l].imag), l)
    ))
    return DominanceRanking(lam, rn, scores, order)


def _orth(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[1] == 0 or not np.any(M):
        raise ZeroResidual("projection basis is zero")
    return spla.orth(M)


def _pencil_ritz(V1, sys):
    Ah = V1.T @ (sys.A @ V1)
    Eh = V1.T @ (sys.E @ V1)
    w, _, _ = small_eig(Ah, Eh)
    return w


def _paired(values):
    """Order a self-conjugate value set so conjugate partners are adjacent."""
    vals = list(values)
    out, used = [], [False] * len(vals)
    for i, v in enumerate(vals):
        if used[i]:
            continue
        used[i] = True
        if abs(v.imag) <= 1e-12 * (1.0 + abs(v)):
            out.append(complex(v.real, 0.0))
            continue
        best, bdist = None, np.inf
        for j in range(i + 1, len(vals)):
            if not used[j]:
                d = abs(vals[j] - v.conjugate())
                if d < bdist:
                    best, bdist = j, d
        if best is not None and bdist <= 1e-8 * (1.0 + abs(v)):
            used[best] = True
            out.extend([v, v.conjugate()])
        else:
            # unpaired complex Ritz value (roundoff); keep it with its mirror
            out.extend([v, v.conjugate()])
    return out


def next_shifts_projection1(B_perp, sys):
    """Ritz values of the pencil projected by orth(residual factor)."""
    V1 = _orth(B_perp)
    return [sanitize_shift(w) for w in _paired(_pencil_ritz(V1, sys))]


def next_shifts_projection2(v_last, sys):
    """Ritz values of the pencil projected by orth(last solve direction)."""
    V1 = _orth(np.real(v_last))
    return [sanitize_shift(w) for w in _paired(_pencil_ritz(V1, sys))]


def next_shift_subspace(history_V, B_or_C_perp, sys, mode="controllable",
                        feedback_gain=None):
    """Dominant pole of the deflated transfer map projected on a history.

    ``history_V`` must be orthonormal.  In controllable mode the residues
    come from the rows of the inverse eigenvector matrix applied to the
    projected residual factor; in observable mode from the output map times
    the eigenvector columns.  ``feedback_gain`` deflates the projected
    dynamics by the current low-rank gain (A - K C resp. A - B K^T), which
    steers the ranking toward the closed-loop spectrum a Riccati iteration
    converges against.

    Only Ritz values with ``Re < 0`` are ranked while at least one exists,
    and the returned ranking holds just those.  A Galerkin projection of a
    stable but non-normal pencil can have Ritz values in the closed right
    half-plane; they estimate no pole, yet the dominance score can put them
    first, and their mirrored shifts stall the iteration.  Only when every
    Ritz value is unstable is the top-ranked one mirrored.
    """
    V1 = history_V
    if V1.shape[1] == 0:
        raise ZeroResidual("empty history")
    AV = sys.A @ V1
    if feedback_gain is not None:
        if mode == "controllable":
            AV = AV - feedback_gain @ (sys.C @ V1)
        else:
            AV = AV - sys.B @ (feedback_gain.T @ V1)
    Ah = V1.T @ AV
    Eh = V1.T @ (sys.E @ V1)
    if mode == "controllable":
        w, T, Tl = small_eig(Ah, Eh)  # eig of Eh^{-1} Ah
        Bh = V1.T @ np.atleast_2d(B_or_C_perp)
        rn = np.array([np.linalg.norm(Tl[l] @ Bh) for l in range(len(w))])
    elif mode == "observable":
        # eig of Ah Eh^{-1}: transpose trick keeps the left/right roles
        M = spla.solve(Eh.T, Ah.T).T
        w, T, _ = small_eig(M)
        Ch = np.atleast_2d(B_or_C_perp) @ V1
        rn = np.array([np.linalg.norm(Ch @ T[:, l]) for l in range(len(w))])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    stable = w.real < 0
    if np.any(stable):
        w, rn = w[stable], rn[stable]
    ranking = rank_dominance(w, rn)
    return sanitize_shift(ranking.top()), ranking


def next_shift_petrov_bt(history_V, history_W, B_perp, C_perp, sys):
    """Pole that is simultaneously most controllable and most observable.

    Two-sided projection; singular projected E falls back to the Galerkin
    controllable ranking with a warning.
    """
    V1, W2 = history_V, history_W
    EV = sys.E @ V1
    Eh = W2.T @ EV
    Ah = W2.T @ (sys.A @ V1)
    Bh = W2.T @ np.atleast_2d(B_perp)
    Ch = np.atleast_2d(C_perp) @ V1
    try:
        sv = spla.svdvals(Eh)
        scale = max(np.linalg.norm(EV, 2), 1e-300)  # W2 is orthonormal
        if sv.size == 0 or sv[-1] <= 1e-12 * scale:
            raise spla.LinAlgError("projected E numerically singular")
        if Eh.shape[0] == Eh.shape[1]:
            At = spla.solve(Eh, Ah)
            Bt = spla.solve(Eh, Bh)
        else:
            At = spla.lstsq(Eh, Ah)[0]
            Bt = spla.lstsq(Eh, Bh)[0]
        if not (np.all(np.isfinite(At)) and np.all(np.isfinite(Bt))):
            raise spla.LinAlgError("non-finite projected solve")
    except spla.LinAlgError as exc:
        logger.warning("projected E singular (%s); falling back to Galerkin", exc)
        raise SingularProjectedE(str(exc)) from exc
    w, T, Tl = small_eig(At)
    rb = np.array([np.linalg.norm(Tl[l] @ Bt) for l in range(len(w))])
    rc = np.array([np.linalg.norm(Ch @ T[:, l]) for l in range(len(w))])
    damp = np.maximum(np.abs(w.real), 1e-12 * (1.0 + np.abs(w)))
    scores = rc * rb / damp
    order = np.array(sorted(
        range(len(w)), key=lambda l: (-scores[l], -abs(w[l].imag), l)
    ))
    ranking = DominanceRanking(w, np.sqrt(rb * rc), scores, order)
    return sanitize_shift(w[order[0]]), ranking


class _History:
    """Orthonormal solve-direction history with implicit restart."""

    def __init__(self, cap):
        self.cap = cap
        self.basis = None

    def push(self, block):
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if self.basis is None or self.basis.shape[1] + block.shape[1] > self.cap:
            self.basis = spla.orth(block)  # restart: keep only the newest block
        else:
            self.basis = spla.orth(np.hstack([self.basis, block]))

    @property
    def width(self):
        return 0 if self.basis is None else self.basis.shape[1]


class _OracleBase:
    """Common queueing: complex shifts are emitted pair-first as units."""

    def __init__(self):
        self.queue = []          # pending individual shifts (conjugates)

    def next_shift(self, *args, **kwargs):
        """Single-shift granularity: conjugates come out one at a time."""
        if self.queue:
            return self.queue.pop(0)
        unit = self.next_unit(*args, **kwargs)
        shifts = unit.shifts()
        self.queue.extend(shifts[1:])
        return shifts[0]


class StaticShiftOracle(_OracleBase):
    """Cycles a fixed unit list."""

    def __init__(self, shifts):
        super().__init__()
        from .realify import as_units

        self.units = as_units(shifts)
        if not self.units:
            raise ValueError("empty shift list")
        self._k = 0

    def next_unit(self):
        unit = self.units[self._k % len(self.units)]
        self._k += 1
        return unit


class ProjectionShiftOracle(_OracleBase):
    """Projection-I (residual-factor basis) or Projection-II (last solve)."""

    def __init__(self, sys, variant=1):
        super().__init__()
        if variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        self.sys = sys
        self.variant = variant
        self._unit_queue = []
        self._started = False

    def observe(self, solve_block, perp):
        self._last_block = np.asarray(solve_block)
        self._perp = np.asarray(perp)

    def next_unit(self):
        if not self._started:
            self._started = True
            return ShiftUnit(INITIAL_SHIFT)
        if not self._unit_queue:
            if self.variant == 1:
                vals = next_shifts_projection1(self._perp, self.sys)
            else:
                vals = next_shifts_projection2(self._last_block, self.sys)
            seen = []
            for v in vals:
                if v.imag >= 0:  # one unit per conjugate pair
                    seen.append(ShiftUnit(v if v.imag > 0 else v.real))
            self._unit_queue = seen or [ShiftUnit(INITIAL_SHIFT)]
        return self._unit_queue.pop(0)


class SubspaceShiftOracle(_OracleBase):
    """Subspace-accelerated Galerkin dominance ranking on one side.

    Each unit is the most dominant stable Ritz value of the pencil projected
    on the history (see ``next_shift_subspace``); right-half-plane Ritz
    values are ranked, and mirrored, only when no stable one exists.
    """

    def __init__(self, sys, mode="controllable", cap=DEFAULT_CAP):
        super().__init__()
        self.sys = sys
        self.mode = mode
        self.history = _History(cap)
        self._perp = None
        self._gain = None

    def observe(self, solve_block, perp, feedback_gain=None):
        self.history.push(solve_block)
        self._perp = np.asarray(perp)
        self._gain = feedback_gain

    def next_unit(self):
        if self.history.width == 0:
            return ShiftUnit(INITIAL_SHIFT)
        if self._perp is None or not np.any(self._perp):
            raise ZeroResidual("residual factor vanished")
        shift, _ = next_shift_subspace(
            self.history.basis, self._perp, self.sys, self.mode,
            feedback_gain=self._gain,
        )
        return ShiftUnit(shift if shift.imag != 0 else shift.real)


class PetrovBtShiftOracle(_OracleBase):
    """Two-sided dominance ranking; emits alpha = beta units."""

    def __init__(self, sys, cap=DEFAULT_CAP):
        super().__init__()
        self.sys = sys
        self.hist_v = _History(cap)
        self.hist_w = _History(cap)
        self._bperp = None
        self._cperp = None

    def observe(self, v_block, w_block, b_perp, c_perp):
        self.hist_v.push(v_block)
        self.hist_w.push(w_block)
        self._bperp = np.asarray(b_perp)
        self._cperp = np.asarray(c_perp)

    def next_unit(self):
        if self.hist_v.width == 0 or self.hist_w.width == 0:
            return ShiftUnit(INITIAL_SHIFT)
        if not (np.any(self._bperp) or np.any(self._cperp)):
            raise ZeroResidual("both residual factors vanished")
        try:
            shift, _ = next_shift_petrov_bt(
                self.hist_v.basis, self.hist_w.basis,
                self._bperp, self._cperp, self.sys,
            )
        except SingularProjectedE:
            shift, _ = next_shift_subspace(
                self.hist_v.basis, self._bperp, self.sys, "controllable"
            )
        return ShiftUnit(shift if shift.imag != 0 else shift.real)


class SylvesterAlternatingOracle(_OracleBase):
    """Alternates most-controllable / most-observable poles, alpha = beta.

    Odd projection calls rank on (E1, A1, Sylvester B-residual), even calls
    on (E2, A2, Sylvester C-residual).
    """

    def __init__(self, sys1, sys2, cap=DEFAULT_CAP):
        super().__init__()
        self.sys1, self.sys2 = sys1, sys2
        self.hist_v = _History(cap)
        self.hist_w = _History(cap)
        self._bperp = None
        self._cperp = None
        self.projection_calls = 0
        self.last_projected = "none"

    def observe(self, v_block, w_block, b_perp, c_perp):
        self.hist_v.push(v_block)
        self.hist_w.push(w_block)
        self._bperp = np.asarray(b_perp)
        self._cperp = np.asarray(c_perp)

    def next_unit(self):
        if self.hist_v.width == 0 and self.hist_w.width == 0:
            return ShiftUnit(INITIAL_SHIFT)
        self.projection_calls += 1
        if self.projection_calls % 2 == 1:
            self.last_projected = "sys1"
            shift, _ = next_shift_subspace(
                self.hist_v.basis, self._bperp, self.sys1, "controllable"
            )
        else:
            self.last_projected = "sys2"
            shift, _ = next_shift_subspace(
                self.hist_w.basis, self._cperp, self.sys2, "observable"
            )
        return ShiftUnit(shift if shift.imag != 0 else shift.real)
