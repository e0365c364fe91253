"""Correctness gate run after the first timed job of each benchmark run,
outside the timed region.

True residuals are recomputed from the extracted low-rank factors and the
sparse E, A, B, C, never from the engine's tracked residual factors:

    Lyapunov/Riccati  A X E^T + E X A^T + B B^T - q E X C^T C X E^T
    Sylvester         A1 X E2 + E1 X A2 + B1 C2

Each is a product  L mid R^T  of thin factors.  Its spectral norm is taken
from the triangular factors of thin QRs of L and R, so roundoff stays at
eps * |L| |R| instead of the sqrt(eps) a plain Gram eigenproblem leaves.
"""

import numpy as np
import scipy.linalg as spla

# The recomputed residual may exceed tol only by roundoff, and must agree
# with the engine's tracked residual to this relative accuracy or to the
# roundoff floor of the recomputation, whichever is larger.
TOL_SLACK = 1.5
AGREE_REL = 1e-2
ROUNDOFF = 1e3 * np.finfo(float).eps
TINY = np.finfo(float).tiny


def _r_factor(M):
    """Triangular QR factor of M.  Subnormal entries (the RLC bases decay
    below 1e-308 along the ladder) are flushed to zero first: they change
    the norm by less than 1e-300 and make the factorization ~6x slower."""
    return np.linalg.qr(np.where(np.abs(M) < TINY, 0.0, M), mode="r")


def _lowrank_norm(L, mid, R=None):
    """Spectral norm of L @ mid @ R^T and the roundoff scale |L| |mid| |R|."""
    rl = _r_factor(L)
    rr = rl if R is None else _r_factor(R)
    core = rl @ mid @ rr.T
    scale = spla.norm(rl, 2) * spla.norm(mid, 2) * spla.norm(rr, 2)
    return spla.norm(core, 2), scale


def riccati_residual(E, A, B, C, left, middle, quad):
    """Normalized residual of A X E^T + E X A^T + B B^T - quad E X C^T C X E^T
    at X = left middle left^T (Lyapunov when quad = 0)."""
    k, m = left.shape[1], B.shape[1]
    AZ, EZ = A @ left, E @ left
    CZ = C @ left
    mid = np.zeros((2 * k + m, 2 * k + m))
    mid[:k, k:2 * k] = middle
    mid[k:2 * k, :k] = middle.T
    mid[k:2 * k, k:2 * k] = -quad * (middle @ (CZ.T @ CZ) @ middle.T)
    mid[2 * k:, 2 * k:] = np.eye(m)
    norm, scale = _lowrank_norm(np.hstack([AZ, EZ, B]), mid)
    rhs = spla.norm(B, 2) ** 2
    return norm / rhs, scale / rhs


def sylvester_residual(sys1, sys2, sol):
    """Normalized residual of A1 X E2 + E1 X A2 + B1 C2 at X = V D W^T."""
    V, D, W = sol.left, sol.middle_matrix(), sol.right
    m = sys1.B.shape[1]
    mid = spla.block_diag(D, D, np.eye(m))
    Lf = np.hstack([sys1.A @ V, sys1.E @ V, sys1.B])
    Rf = np.hstack([sys2.E.T @ W, sys2.A.T @ W, sys2.C.T])
    norm, scale = _lowrank_norm(Lf, mid, Rf)
    rhs, _ = _lowrank_norm(sys1.B, np.eye(m), sys2.C.T)
    return norm / rhs, scale / rhs


def true_residual(state, tag):
    sol = state.extract(tag)
    if tag == "sylv":
        return sylvester_residual(state.sys1, state.sys2, sol)
    if tag.endswith("_p"):
        s = state.sys1
        E, A, B, C = s.E, s.A, s.B, s.C
    else:
        s = state.sys2
        E, A, B, C = s.E.T, s.A.T, s.C.T, s.B.T
    quad = 1.0 if tag.startswith("ricc") else 0.0
    return riccati_residual(E, A, B, C, sol.left, sol.middle_matrix(), quad)


def check_residuals(state, tol):
    """Per checked tag: (ok, true residual, tracked residual)."""
    out = {}
    for tag in ("lyap_p", "lyap_q", "sylv", "ricc_p", "ricc_q"):
        if tag not in state.enabled:
            continue
        true, floor = true_residual(state, tag)
        tracked = state.residual_norm(tag)
        agree = abs(true - tracked) <= max(AGREE_REL * max(true, tracked),
                                           ROUNDOFF * floor)
        ok = bool(np.isfinite(true) and true <= TOL_SLACK * tol and agree)
        out[tag] = (ok, float(true), float(tracked))
    return out


def check_reduction(rom, hankel, roms):
    """The balanced-truncation model is stable, its Hankel values positive
    and non-increasing, and every ROM variant is finite."""
    problems = []
    if not np.all(np.real(rom.poles()) < 0):
        problems.append("balanced truncation model is unstable")
    if not (np.all(hankel > 0) and np.all(np.diff(hankel) <= 0)):
        problems.append("Hankel values not positive and non-increasing")
    for r in roms:
        if not all(np.all(np.isfinite(M)) for M in (r.A, r.B, r.C, r.D)):
            problems.append(f"ROM {r.tag} has non-finite entries")
    return problems
