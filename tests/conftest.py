"""Shared helpers: random stable systems and dense matrix-equation oracles."""

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps


def whole_band(A, E, shift):
    """The gttrf factors (dl, d, du, du2, ipiv) of a tridiagonal pencil
    A + shift*E (a real one for a real shift) in one call over the whole
    band, every block at once: the reference of the per-block LUs."""
    from uadi.linalg import _PencilSplit

    a, e, _ = _PencilSplit(sps.csc_matrix(A), sps.csc_matrix(E)).bands
    shift = complex(shift)
    M = a + (shift.real if shift.imag == 0 else shift) * e
    gttrf = spla.get_lapack_funcs("gttrf", (M,))
    return gttrf(M[2, :-1], M[1], M[0, 1:])[:5]


def whole_band_solve(A, E, shift, rhs, trans="N"):
    """(A + shift*E) X = rhs, or its plain transpose with trans='T', by one
    gttrs call on the ``whole_band`` factors; a complex rhs against real
    factors is solved as its real and imaginary parts, as a factorization
    solves it."""
    factors = whole_band(A, E, shift)
    rhs = np.asarray(rhs)
    if np.iscomplexobj(rhs) and not np.iscomplexobj(factors[1]):
        x = whole_band_solve(A, E, shift, np.hstack([rhs.real, rhs.imag]), trans)
        return x[:, :rhs.shape[1]] + 1j * x[:, rhs.shape[1]:]
    gttrs = spla.get_lapack_funcs("gttrs", (factors[1],))
    return gttrs(*factors, rhs.astype(factors[1].dtype), trans=trans)[0]


def count_shifted(monkeypatch, owner):
    """Count the shifted factors T^T + mu I that each call of
    ``owner.solve_placed_sylvester`` forms, one list entry per call; returns
    the counts and the counting kernel."""
    import uadi.linalg as linalg

    counts, shifted, placed = [], linalg._shifted, owner.solve_placed_sylvester

    def counted_shifted(*args):
        counts[-1] += 1
        return shifted(*args)

    def counted_placed(*args):
        counts.append(0)
        return placed(*args)

    monkeypatch.setattr(linalg, "_shifted", counted_shifted)
    monkeypatch.setattr(owner, "solve_placed_sylvester", counted_placed)
    return counts, counted_placed


def dense_pencil(sys):
    return sys.E.toarray(), sys.A.toarray()


def dense_lyap_p(sys):
    """Dense solution of A P E^T + E P A^T + B B^T = 0."""
    E, A = dense_pencil(sys)
    Ei = spla.inv(E)
    return spla.solve_continuous_lyapunov(Ei @ A, -(Ei @ sys.B) @ (Ei @ sys.B).T)


def dense_lyap_q(sys):
    """Dense solution of A^T Q E + E^T Q A + C^T C = 0."""
    E, A = dense_pencil(sys)
    M = spla.solve_continuous_lyapunov(spla.solve(E, A).T, -sys.C.T @ sys.C)
    Ei = spla.inv(E)
    return Ei.T @ M @ Ei


def dense_sylvester(sys1, sys2):
    """Dense solution of A1 X E2 + E1 X A2 + B1 C2 = 0."""
    E1, A1 = dense_pencil(sys1)
    E2, A2 = dense_pencil(sys2)
    return spla.solve_sylvester(
        spla.solve(E1, A1), A2 @ spla.inv(E2),
        -spla.solve(E1, sys1.B @ sys2.C @ spla.inv(E2)),
    )


def dense_riccati_p(sys):
    """Dense stabilizing solution of
    A P E^T + E P A^T + B B^T - E P C^T C P E^T = 0."""
    E, A = dense_pencil(sys)
    return spla.solve_continuous_are(
        A.T, sys.C.T, sys.B @ sys.B.T, np.eye(sys.p), e=E.T, s=None
    )


def equation_residual(tag, sys1, sys2, sol, params=None, gramians=None):
    """Dense residual matrix of one equation at a candidate solution.

    ``sol`` is the dense candidate; ``gramians`` supplies (P1, Q2) for the
    spectral-factor pair (the low-rank approximations the engine couples to).
    """
    E1, A1 = dense_pencil(sys1)
    E2, A2 = dense_pencil(sys2)
    B1, C1, D1 = sys1.B, sys1.C, sys1.D
    B2, C2, D2 = sys2.B, sys2.C, sys2.D
    if tag == "lyap_p":
        return A1 @ sol @ E1.T + E1 @ sol @ A1.T + B1 @ B1.T
    if tag == "lyap_q":
        return A2.T @ sol @ E2 + E2.T @ sol @ A2 + C2.T @ C2
    if tag == "ldl_p":
        S1 = params.S1 if params is not None and params.S1 is not None else np.eye(sys1.m)
        return A1 @ sol @ E1.T + E1 @ sol @ A1.T + B1 @ S1 @ B1.T
    if tag == "ldl_q":
        S2 = params.S2 if params is not None and params.S2 is not None else np.eye(sys2.p)
        return A2.T @ sol @ E2 + E2.T @ sol @ A2 + C2.T @ S2 @ C2
    if tag == "mp_p":
        Am = A1 - B1 @ spla.solve(D1, C1)
        return Am @ sol @ E1.T + E1 @ sol @ Am.T + B1 @ spla.inv(D1.T @ D1) @ B1.T
    if tag == "mp_q":
        Am = A2 - B2 @ spla.solve(D2, C2)
        return Am.T @ sol @ E2 + E2.T @ sol @ Am + C2.T @ spla.inv(D2 @ D2.T) @ C2
    if tag == "sylv":
        return A1 @ sol @ E2 + E1 @ sol @ A2 + B1 @ C2
    if tag == "ricc_p":
        return (A1 @ sol @ E1.T + E1 @ sol @ A1.T + B1 @ B1.T
                - E1 @ sol @ C1.T @ C1 @ sol @ E1.T)
    if tag == "ricc_q":
        return (A2.T @ sol @ E2 + E2.T @ sol @ A2 + C2.T @ C2
                - E2.T @ sol @ B2 @ B2.T @ sol @ E2)
    if tag == "inf_p":
        c = 1.0 - params.gamma1 ** -2
        return (A1 @ sol @ E1.T + E1 @ sol @ A1.T + B1 @ B1.T
                - c * E1 @ sol @ C1.T @ C1 @ sol @ E1.T)
    if tag == "inf_q":
        c = 1.0 - params.gamma2 ** -2
        return (A2.T @ sol @ E2 + E2.T @ sol @ A2 + C2.T @ C2
                - c * E2.T @ sol @ B2 @ B2.T @ sol @ E2)
    if tag == "pr_p":
        W = B1 - E1 @ sol @ C1.T
        return A1 @ sol @ E1.T + E1 @ sol @ A1.T + W @ spla.inv(D1 + D1.T) @ W.T
    if tag == "pr_q":
        W = C2 - B2.T @ sol @ E2
        return A2.T @ sol @ E2 + E2.T @ sol @ A2 + W.T @ spla.inv(D2 + D2.T) @ W
    if tag == "br_p":
        W = E1 @ sol @ C1.T + B1 @ D1.T
        G = spla.inv(np.eye(sys1.p) - D1 @ D1.T)
        return A1 @ sol @ E1.T + E1 @ sol @ A1.T + B1 @ B1.T + W @ G @ W.T
    if tag == "br_q":
        W = B2.T @ sol @ E2 + D2.T @ C2
        G = spla.inv(np.eye(sys2.m) - D2.T @ D2)
        return A2.T @ sol @ E2 + E2.T @ sol @ A2 + C2.T @ C2 + W.T @ G @ W
    if tag == "sf_p":
        _, Q2 = gramians
        K = Q2 @ B1 + C1.T @ D1
        W = B1 - E1 @ sol @ K
        return A1 @ sol @ E1.T + E1 @ sol @ A1.T + W @ spla.inv(D1.T @ D1) @ W.T
    if tag == "sf_q":
        P1, _ = gramians
        M = C2 @ P1 + D2 @ B2.T
        W = C2 - M @ sol @ E2
        return A2.T @ sol @ E2 + E2.T @ sol @ A2 + W.T @ spla.inv(D2 @ D2.T) @ W
    raise ValueError(tag)


def residual_product(state, tag):
    """Dense residual product implied by the tracked thin factors."""
    rf = state.residual_factor(tag)
    if tag == "sylv":
        b, c = rf
        return b.factor @ c.factor
    F = rf.factor
    if rf.weight is not None:
        return F @ rf.weight @ F.T
    return F @ F.T


def assert_multiset_close(got, want, tol=1e-8):
    """Greedy nearest matching of two complex multisets."""
    got = list(np.asarray(got, dtype=complex))
    want = list(np.asarray(want, dtype=complex))
    assert len(got) == len(want)
    for w in want:
        dists = [abs(g - w) for g in got]
        j = int(np.argmin(dists))
        assert dists[j] <= tol * (1.0 + abs(w)), (
            f"no match for {w}: closest {got[j]} at distance {dists[j]}"
        )
        got.pop(j)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
