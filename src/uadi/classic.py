"""Standalone low-rank ADI solvers.

Reference implementations of the Cholesky-factor ADI iteration for Lyapunov
equations (with the LDL^T weighting variant), the factored ADI iteration for
Sylvester equations, and the ADI-type Riccati iteration.  CfAdi and Radi
keep real factors: complex shifts are consumed as conjugate pairs through
the realified column blocks of :mod:`uadi.realify`.  Fadi is the textbook
iteration in complex arithmetic, with complex factors and a product that is
real up to roundoff; it shares no grouping or realification with the
engine.  An observability-side problem is the same solver on
``sys.dual()``: ``cf_adi(sys.dual(), shifts)`` gives the observability
Gramian factor.

These solvers are useful on their own and double as independent references
for the shared-solve engine's extraction identities.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import DimensionMismatch, InnerSolveSingular
from .linalg import FactorizationCache, block_diag2, gram_norm2, solve_small_lyapunov
from .realify import ShiftUnit, as_units, expand_units, lyap_sl, realified_columns

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


def cf_adi(sys, shifts):
    """Run CF-ADI over a shift list, one step per shift unit.
    ``cf_adi(sys.dual(), shifts)`` gives the observability Gramian factor.

    Returns (LowRankSolution, ResidualFactor, history); history holds
    (iteration, normalized residual) pairs.
    """
    it = CfAdi(sys)
    for unit in as_units(shifts):
        it.step(unit)
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
        self.Phat = block_diag2(self.Phat, phat)
        EV = self.sys.E @ block
        self.Bperp = self.Bperp - EV @ (phat @ l.T)
        self.K = self.K + EV @ (phat @ chat.T)
        self.iterations += len(unit.shifts())
        self.history.append((self.iterations, self.residual_norm()))

    def solution(self):
        return LowRankSolution(self.V, self.Phat.copy(), tag="riccati")

    def residual_factor(self):
        return ResidualFactor(self.Bperp.copy())


def radi(sys, shifts, quad_weight=1.0):
    """Run the Riccati ADI iteration over a shift list, one step per unit."""
    it = Radi(sys, quad_weight=quad_weight)
    for unit in as_units(shifts):
        it.step(unit)
    return it.solution(), it.residual_factor(), it.history


class _FadiSide:
    """One side of factored ADI on ``sys``: basis columns and the residual
    factor, which starts at ``sys.B``."""

    def __init__(self, sys):
        self.E = sys.E
        self._cache = FactorizationCache(sys.A, sys.E)
        self.perp = np.array(sys.B, dtype=complex)
        self.columns = []

    def step(self, shift, g):
        v = self._cache.solve(shift, self.perp)
        self.perp = self.perp - g * (self.E @ v)
        self.columns.append(v)

    def basis(self):
        return np.hstack([np.zeros((len(self.perp), 0), complex), *self.columns])


class Fadi:
    """Factored ADI iteration for A1 X E2 + E1 X A2 + B1 C2 = 0, in complex
    arithmetic (Benner, Li & Truhar, J. Comput. Appl. Math. 233, 2009).

    The V side solves with A1 + alpha E1 on ``sys1``; the W side is the
    same side run on ``sys2.dual()``, solving with A2^T + beta E2^T.  A step
    (alpha, beta) with g = alpha + beta appends v and w, adds -g v w^T to X
    and updates B_perp -= g E1 v, C_perp^T -= g E2^T w, so the residual is
    B_perp C_perp.  X depends only on the two shift multisets: conjugate-
    closed lists give a real X up to roundoff, with complex factors.
    """

    def __init__(self, sys1, sys2):
        if sys1.m != sys2.p:
            raise DimensionMismatch(
                f"m1={sys1.m} must equal p2={sys2.p} for the Sylvester equation"
            )
        self.v, self.w = _FadiSide(sys1), _FadiSide(sys2.dual())
        self.g = []
        self.rhs_norm = gram_norm2(sys1.B, np.eye(sys1.m), sys2.C.T)
        self.history = []

    def residual_norm(self):
        den = self.rhs_norm if self.rhs_norm > 0 else 1.0
        return gram_norm2(self.v.perp, None, self.w.perp.conj()) / den

    def step(self, alpha, beta):
        g = complex(alpha) + complex(beta)
        self.v.step(alpha, g)
        self.w.step(beta, g)
        self.g.append(g)
        self.history.append((len(self.g), self.residual_norm()))

    def solution(self):
        """X = V D W^T; ``right`` is conj(W) because a LowRankSolution
        multiplies by ``right*``."""
        D = np.kron(np.diag(-np.array(self.g, dtype=complex)),
                    np.eye(self.v.perp.shape[1]))
        return LowRankSolution(self.v.basis(), D, self.w.basis().conj(),
                               tag="sylvester")

    def residual_factors(self):
        return (
            ResidualFactor(self.v.perp.copy()),
            ResidualFactor(self.w.perp.T.copy()),
        )


def fadi(sys1, sys2, alphas, betas):
    """Run factored ADI over two shift lists of equal length, pairing them
    index by index; each list must be conjugate-closed (``as_units``).

    Returns (LowRankSolution, (ResidualFactor, ResidualFactor), history),
    with one history row per shift pair.
    """
    alphas = expand_units(as_units(alphas))
    betas = expand_units(as_units(betas))
    if len(alphas) != len(betas):
        raise DimensionMismatch(
            f"{len(alphas)} alpha shifts against {len(betas)} beta shifts"
        )
    it = Fadi(sys1, sys2)
    for alpha, beta in zip(alphas, betas):
        it.step(alpha, beta)
    return it.solution(), it.residual_factors(), it.history
