"""Standalone low-rank ADI solvers.

Reference implementations of the Cholesky-factor ADI iteration for Lyapunov
equations (with the LDL^T weighting variant), the factored ADI iteration for
Sylvester equations, and the ADI-type Riccati iteration.  All stored factors
are real: complex shifts are consumed as conjugate pairs through the
realified column blocks of :mod:`uadi.realify`.  An observability-side
problem is the same solver on ``sys.dual()``: ``cf_adi(sys.dual(), shifts)``
gives the observability Gramian factor.

These solvers are useful on their own and double as independent references
for the shared-solve engine's extraction identities.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import (
    DimensionMismatch,
    InnerSolveSingular,
    UnpairedComplexShift,
)
from .linalg import FactorizationCache, gram_norm2, solve_small_lyapunov, solve_small_sylvester
from .realify import (
    ShiftUnit,
    as_units,
    lyap_sl,
    realified_columns,
    sylv_basis_block,
    sylv_case,
    sylv_sl,
)

__all__ = [
    "LowRankSolution",
    "ResidualFactor",
    "CfAdi",
    "Fadi",
    "Radi",
    "cf_adi",
    "fadi",
    "radi",
    "ldl_residual",
    "group_sylvester_cases",
]


@dataclass
class LowRankSolution:
    """Factored approximation left @ middle @ right* (right = left if None)."""

    left: np.ndarray
    middle: np.ndarray = None
    right: np.ndarray = None
    tag: str = ""

    @property
    def rank(self):
        return self.left.shape[1]

    def middle_matrix(self):
        return np.eye(self.rank) if self.middle is None else self.middle

    def product(self):
        """Dense evaluation; intended for small-n verification only."""
        right = self.left if self.right is None else self.right
        return self.left @ self.middle_matrix() @ right.conj().T


@dataclass
class ResidualFactor:
    """Thin factor whose (weighted) Gram product is the equation residual."""

    factor: np.ndarray
    weight: np.ndarray = None
    side: str = "left"

    def norm2(self):
        return gram_norm2(self.factor, self.weight)


def ldl_residual(res, S):
    """Spectral norm of factor @ S @ factor* (the LDL^T-weighted residual)."""
    S = np.atleast_2d(np.asarray(S))
    q = res.factor.shape[1]
    if S.shape != (q, q):
        raise DimensionMismatch(f"S must be {q} x {q}, got {S.shape}")
    return gram_norm2(res.factor, S, res.factor)


class CfAdi:
    """Low-rank Lyapunov iteration A P E^T + E P A^T + B B^T = 0.

    The observability Gramian of ``sys`` is the controllability Gramian of
    ``sys.dual()``, so ``CfAdi(sys.dual())`` computes its factor.  One
    shifted solve per unit; the factorization of the last shift is kept, so
    a unit that repeats the previous shift refactors nothing.
    """

    def __init__(self, sys):
        self.sys = sys
        self._cache = FactorizationCache(sys.A, sys.E)
        self.B0 = np.array(sys.B, dtype=float)
        self.Bperp = self.B0.copy()
        self.Z = np.zeros((sys.n, 0))
        self.rhs_norm = gram_norm2(self.B0)
        self.iterations = 0
        self.history = []

    @property
    def m(self):
        return self.B0.shape[1]

    def residual_norm(self):
        den = self.rhs_norm if self.rhs_norm > 0 else 1.0
        return gram_norm2(self.Bperp) / den

    def step(self, unit):
        if not isinstance(unit, ShiftUnit):
            unit = ShiftUnit(unit)
        v = self._cache.solve(unit.value, self.Bperp)
        block = realified_columns(unit, v)
        _, l = lyap_sl(unit, self.m)
        self.Z = np.hstack([self.Z, block])
        self.Bperp = self.Bperp - (self.sys.E @ block) @ l.T
        self.iterations += len(unit.shifts())
        self.history.append((self.iterations, self.residual_norm()))

    def solution(self):
        return LowRankSolution(self.Z, tag="gramian")

    def residual_factor(self):
        return ResidualFactor(self.Bperp.copy())


def cf_adi(sys, shifts, max_iter=None, tol=0.0):
    """Run CF-ADI over a shift list (cycled unit-wise if max_iter exceeds it).
    ``cf_adi(sys.dual(), shifts)`` gives the observability Gramian factor.

    Returns (LowRankSolution, ResidualFactor, history); history holds
    (iteration, normalized residual) pairs.
    """
    units = as_units(shifts)
    if max_iter is None:
        max_iter = len(units)
    it = CfAdi(sys)
    k = 0
    while k < max_iter:
        it.step(units[k % len(units)])
        k += 1
        if tol and it.residual_norm() <= tol:
            break
    return it.solution(), it.residual_factor(), it.history


class Radi:
    """Low-rank Riccati iteration for
    A P E^T + E P A^T + B B^T - E P C^T C P E^T = 0.

    Each unit performs one factorization of (A + alpha E) applied to the
    widened right-hand side [B_perp, K] (the low-rank-update route around
    the deflated matrix A - K C), where the gain K = E V Phat V^T C^T is
    maintained incrementally and never formed at full size.  ``quad_weight``
    scales the quadratic term (used by the bounded-gain variant).
    """

    def __init__(self, sys, quad_weight=1.0):
        self.sys = sys
        self._cache = FactorizationCache(sys.A, sys.E)
        self.B0 = np.array(sys.B, dtype=float)
        self.Bperp = self.B0.copy()
        self.V = np.zeros((sys.n, 0))
        self.Phat = np.zeros((0, 0))
        self.K = np.zeros((sys.n, sys.p))
        self.quad_weight = float(quad_weight)
        self.rhs_norm = gram_norm2(self.B0)
        self.iterations = 0
        self.history = []

    @property
    def m(self):
        return self.B0.shape[1]

    def residual_norm(self):
        den = self.rhs_norm if self.rhs_norm > 0 else 1.0
        return gram_norm2(self.Bperp) / den

    def _deflated_solve(self, shift, rhs):
        C = self.sys.C
        fac = self._cache.get(shift)
        X = fac.solve(np.hstack([rhs, self.quad_weight * self.K]))
        XB, XK = X[:, : rhs.shape[1]], X[:, rhs.shape[1] :]
        cap = np.eye(C.shape[0]) - C @ XK
        try:
            corr = spla.solve(cap, C @ XB)
        except spla.LinAlgError as exc:
            raise InnerSolveSingular(str(exc)) from exc
        return XB + XK @ corr

    def step(self, unit):
        if not isinstance(unit, ShiftUnit):
            unit = ShiftUnit(unit)
        y = self._deflated_solve(unit.value, self.Bperp)
        block = realified_columns(unit, y)
        s, l = lyap_sl(unit, self.m)
        chat = self.sys.C @ block
        small = solve_small_lyapunov(
            -s, l.T @ l + self.quad_weight * (chat.T @ chat)
        )
        phat = spla.inv(small)
        self.V = np.hstack([self.V, block])
        self.Phat = spla.block_diag(self.Phat, phat)
        EV = self.sys.E @ block
        self.Bperp = self.Bperp - EV @ (phat @ l.T)
        self.K = self.K + EV @ (phat @ chat.T)
        self.iterations += len(unit.shifts())
        self.history.append((self.iterations, self.residual_norm()))

    def solution(self):
        return LowRankSolution(self.V, self.Phat.copy(), tag="riccati")

    def residual_factor(self):
        return ResidualFactor(self.Bperp.copy())


def radi(sys, shifts, max_iter=None, tol=0.0, quad_weight=1.0):
    """Run the Riccati ADI iteration over a shift list (cycled unit-wise)."""
    units = as_units(shifts)
    if max_iter is None:
        max_iter = len(units)
    it = Radi(sys, quad_weight=quad_weight)
    k = 0
    while k < max_iter:
        it.step(units[k % len(units)])
        k += 1
        if tol and it.residual_norm() <= tol:
            break
    return it.solution(), it.residual_factor(), it.history


def group_sylvester_cases(alpha_units, beta_units, reorder=True):
    """Group per-side shift units into valid realification cases.

    Greedy front-of-queue matching; a mixed front (real vs pair) pulls the
    next unit of the needed kind forward when ``reorder`` is set.  Raises
    UnpairedComplexShift when no valid grouping exists.
    """
    au, bu = list(alpha_units), list(beta_units)
    groups = []

    def take_real(queue):
        for j, u in enumerate(queue):
            if not u.is_pair:
                return queue.pop(j)
            if not reorder:
                break
        raise UnpairedComplexShift(
            "a lone real shift faces a conjugate pair and no second real "
            "shift is available to complete the group"
        )

    while au and bu:
        a0, b0 = au.pop(0), bu.pop(0)
        if a0.is_pair == b0.is_pair:
            groups.append(([a0], [b0]))
        elif not a0.is_pair:  # real alpha vs beta pair: need 2nd real alpha
            groups.append(([a0, take_real(au)], [b0]))
        else:  # alpha pair vs real beta: need 2nd real beta
            groups.append(([a0], [b0, take_real(bu)]))
    if au or bu:
        raise DimensionMismatch(
            "alpha and beta shift sequences have unequal effective lengths"
        )
    return groups


class Fadi:
    """Factored ADI iteration for A1 X E2 + E1 X A2 + B1 C2 = 0.

    Approximates X as V @ D @ W^T with block-diagonal D; the residual is the
    outer product of the two thin factors B_perp and C_perp.
    """

    def __init__(self, sys1, sys2):
        if sys1.m != sys2.p:
            raise DimensionMismatch(
                f"m1={sys1.m} must equal p2={sys2.p} for the Sylvester equation"
            )
        self.sys1, self.sys2 = sys1, sys2
        self._cache_v = FactorizationCache(sys1.A, sys1.E)
        self._cache_w = FactorizationCache(sys2.A.T.tocsc(), sys2.E.T.tocsc())
        self.Bperp = np.array(sys1.B, dtype=float)
        self.Cperp = np.array(sys2.C, dtype=float)
        self.V = np.zeros((sys1.n, 0))
        self.W = np.zeros((sys2.n, 0))
        self.D = np.zeros((0, 0))
        self.rhs_norm = gram_norm2(sys1.B, np.eye(sys1.m), sys2.C.T)
        self.iterations = 0
        self.history = []

    @property
    def m(self):
        return self.sys1.m

    def residual_norm(self):
        den = self.rhs_norm if self.rhs_norm > 0 else 1.0
        return gram_norm2(self.Bperp, np.eye(self.Bperp.shape[1]), self.Cperp.T) / den

    def step_case(self, alpha_units, beta_units):
        case = sylv_case(alpha_units, beta_units)
        sv, lv, sw, lw = sylv_sl(case, alpha_units, beta_units, self.m)
        Vb = sylv_basis_block(
            case, "v", alpha_units,
            lambda sh, rhs: self._cache_v.solve(sh, rhs),
            (self.Bperp, lambda x: self.sys1.E @ x),
        )
        Wb = sylv_basis_block(
            case, "w", beta_units,
            lambda sh, rhs: self._cache_w.solve(sh, rhs),
            (self.Cperp.T, lambda x: self.sys2.E.T @ x),
        )
        Vb, Wb = np.real(Vb), np.real(Wb)
        d = solve_small_sylvester(-sw.T, sv, lw.T @ lv)
        dinv = spla.inv(d)
        self.V = np.hstack([self.V, Vb])
        self.W = np.hstack([self.W, Wb])
        self.D = spla.block_diag(self.D, dinv)
        self.Bperp = self.Bperp - (self.sys1.E @ Vb) @ (dinv @ lw.T)
        self.Cperp = self.Cperp - (lv @ dinv) @ (Wb.T @ self.sys2.E)
        self.iterations += sum(len(u.shifts()) for u in alpha_units)
        self.history.append((self.iterations, self.residual_norm()))

    def solution(self):
        return LowRankSolution(self.V, self.D.copy(), self.W, tag="sylvester")

    def residual_factors(self):
        return (
            ResidualFactor(self.Bperp.copy(), side="left"),
            ResidualFactor(self.Cperp.copy(), side="right"),
        )


def fadi(sys1, sys2, alphas, betas, max_iter=None, tol=0.0):
    """Run factored ADI over two shift lists grouped into valid cases.

    Returns (LowRankSolution, (ResidualFactor, ResidualFactor), history).
    """
    groups = group_sylvester_cases(as_units(alphas), as_units(betas))
    it = Fadi(sys1, sys2)
    consumed = 0
    for ga, gb in groups:
        it.step_case(ga, gb)
        consumed += sum(len(u.shifts()) for u in ga)
        if tol and it.residual_norm() <= tol:
            break
        if max_iter is not None and consumed >= max_iter:
            break
    return it.solution(), it.residual_factors(), it.history
