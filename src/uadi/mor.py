"""Reduced-order models assembled from the engine's accumulators.

Every variant shares the interpolation basis; only the free parameter
(input map on side 1 / output map on side 2) changes, which relocates the
reduced poles.  Also provides interpolation verification against the full
model and low-rank square-root balanced truncation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import DimensionMismatch, RankDeficient, VariantUnavailable
from .systems import transfer_eval
from .uadi import UadiState

__all__ = [
    "ReducedModel",
    "build_rom",
    "basis_well_conditioned",
    "interpolation_check",
    "bt_square_root",
    "bt_from_factors",
]

# ROM variant -> the equation family whose solution sets its free parameter
_FAMILY = {"lyap": None, "sylv-pole": "sylv", "ricc-observer": "ricc",
           "inf-filter": "inf", "mp": "mp", "pr": "pr", "br": "br"}
VARIANTS = tuple(_FAMILY)


@dataclass
class ReducedModel:
    """Dense realization (A, B, C, D) with implicit identity E."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    tag: str = ""

    @property
    def order(self):
        return self.A.shape[0]

    def poles(self):
        if self.order == 0:
            return np.array([])
        return spla.eigvals(self.A)

    def eval(self, s):
        if self.order == 0:
            return self.D.copy()
        x = spla.solve(complex(s) * np.eye(self.order) - self.A, self.B)
        return self.C @ x + self.D


def build_rom(state, side, variant):
    """Assemble the reduced model of one side with the variant's free
    parameter; the variant decides where the reduced poles land.

    Side 2 is side 1 assembled on the engine's W side, which runs on
    G2.dual(), and transposed back."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; known: {VARIANTS}")
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    this, other = (state.v, state.w) if side == 1 else (state.w, state.v)
    family = _FAMILY[variant]
    need = family if family in (None, "sylv") else family + this.suffix
    if need is not None:
        if need not in state.enabled:
            raise VariantUnavailable(
                f"{variant} needs {need}: {state.skipped.get(need, 'not selected')}"
            )
        if need in state.degraded:
            raise VariantUnavailable(f"{need} is degraded: {state.degraded[need]}")

    S, L, G = this.S, this.L, this.G
    if variant == "lyap":
        Bhat = L.T
    elif variant == "sylv-pole":
        k, D = state.sylv.q, state.sylv.D if side == 1 else state.sylv.D.T
        S, L, G = S[:k, :k], L[:, :k], G[:k]
        Bhat = this.sylv.T @ D @ other.sylv.T.T @ other.L[:, :k].T
    else:
        eq = this.eqs[family]
        # T Phat T^T, the middle matrix in shared-basis coordinates; the
        # minimum-phase equation has no middle matrix and uses T
        M = eq.T if eq.Phat is None else eq.T @ eq.Phat @ eq.T.T
        Bhat = M @ L.T @ this.cfg[family]["rri"]
    A, B, C, D = S - Bhat @ L, Bhat, G.T, this.sys.D
    if side == 2:
        A, B, C, D = A.T, C.T, B.T, D.T
    return ReducedModel(A, B, C, D.copy(), tag=f"side{side}:{variant}")


def basis_well_conditioned(V, threshold=1e-13):
    """Whether the shared basis still has usable numerical column rank.

    Interpolation holds exactly only for a full-column-rank basis; once the
    smallest singular value falls below ``threshold`` times the largest,
    interpolation checks should be treated as indicative, not assertable.
    """
    if V.shape[1] == 0:
        return True
    sv = spla.svdvals(V)
    return sv[-1] > threshold * sv[0]


def interpolation_check(sys, rom, points):
    """Largest relative transfer-function deviation over the given points."""
    worst = 0.0
    for s in points:
        G = transfer_eval(sys, s)
        Gr = rom.eval(s)
        dev = spla.norm(G - Gr, 2) / (1.0 + spla.norm(G, 2))
        worst = max(worst, dev)
    return worst


def bt_from_factors(sys, Zp, Zq, r, threshold=1e-12):
    """Square-root balanced truncation from Gramian factors P ~ Zp Zp^T,
    Q ~ Zq Zq^T; returns (ReducedModel, approximate Hankel values)."""
    M = Zq.T @ (sys.E @ Zp)
    U, sv, Vt = spla.svd(M, full_matrices=False)
    hankel = sv.copy()
    if r == 0:
        return ReducedModel(np.zeros((0, 0)), np.zeros((0, sys.m)),
                            np.zeros((sys.p, 0)), sys.D.copy(), tag="bt:0"), hankel
    rank = int(np.sum(sv > threshold * sv[0])) if sv.size else 0
    if r > rank:
        raise RankDeficient(
            f"requested order {r} exceeds numerical rank {rank}"
        )
    scale = 1.0 / np.sqrt(sv[:r])
    Vr = Zp @ (Vt[:r].T * scale)
    Wr = Zq @ (U[:, :r] * scale)
    Ar = Wr.T @ (sys.A @ Vr)
    Br = Wr.T @ sys.B
    Cr = sys.C @ Vr
    return ReducedModel(Ar, Br, Cr, sys.D.copy(), tag=f"bt:{r}"), hankel


def bt_square_root(state, r):
    """Balanced truncation from the engine's Gramian factors (needs the
    single-system mode, G1 = G2)."""
    if not isinstance(state, UadiState):
        raise DimensionMismatch("expected an engine state")
    if not state.single_system:
        raise VariantUnavailable("balanced truncation needs G1 = G2")
    return bt_from_factors(state.sys1, state.V, state.W, r)
