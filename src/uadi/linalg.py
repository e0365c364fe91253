"""Dense/sparse numerical kernels.

Shifted sparse solves with factorization reuse, small dense Sylvester and
Lyapunov solvers, small eigendecompositions with left vectors, and spectral
norms of low-rank products evaluated through the small Gram eigenproblem.

A FactorizationCache holds sparse LUs of A + shift*E keyed by the exact
shift; a real shift is factored in real arithmetic.  It keeps the LU it
used last plus those of the shifts its caller declares recurring (a cyclic
static list); every other LU is dropped when the next shift arrives, so
memory is bounded by what will be reused.  The cache of a transposed pencil
A^T + shift*E^T made by ``transposed()`` solves with the plain-transpose LU
of A + shift*E (SuperLU trans='T', no conjugation, so complex shifts are
fine) and borrows the LUs its parent holds: one LU per shift serves both
sides of a single system.

Each pencil is split once (per cache, or per one-off factorization) into
its decoupled states and its coupled core.  A state is decoupled when its
row and its column hold no off-diagonal entry in A or in E, so its
equation is the scalar (a_ii + shift*e_ii) x_i = r_i: a factorization
keeps these pivots and a solve divides by them.  SuperLU factors only the
core, and makes no call when the core is empty (the check of a diagonal
E); a pencil with no decoupled state is factored whole, as it is.  A new
shift still counts as one factorization.  penzl's pencils are 6 coupled
states and n - 6 decoupled ones; the RLC ladders have none.  SuperLU
factors with a panel of one column (``panel_size=1``): the pencils here
fill little, their supernodes are one or two columns wide, and a wider
panel's workspace and per-panel work cost more than they save
(``tools/superlu_panel_sweep.py``).

Every small Sylvester solve goes through a Schur form.  An extraction
solves S^T t + t s + U (G^T t) = H against the complex Schur form of S that
its side holds: column by column (Golub, Nash & Van Loan, IEEE TAC 24(6),
1979) with one shifted triangular factor per distinct eigenvalue of s,
shared by every equation of the side, and the rank-p correction U G^T by
Sherman-Morrison-Woodbury.  Any other F X - X G + H = 0 goes through
Bartels-Stewart on plain matrices: one Schur form per side, eigenvalues
read off the Schur diagonals for the separation check, and LAPACK trsyl.
A small Lyapunov solve may take the SchurForm of F that the caller already
holds, so that it is not computed twice.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import (
    DimensionMismatch,
    EigFailure,
    NonHermitianRHS,
    SingularShiftedMatrix,
    SpectraOverlap,
)

__all__ = [
    "ShiftedFactorization",
    "FactorizationCache",
    "shifted_solve",
    "SchurForm",
    "schur_form",
    "solve_small_sylvester",
    "solve_placed_sylvester",
    "solve_small_lyapunov",
    "symmetric_inverse",
    "small_eig",
    "gram_norm2",
    "block_diag2",
]


def _as_csc(A):
    if sps.issparse(A):
        return A.tocsc()
    return sps.csc_matrix(np.atleast_2d(A))


class _PencilSplit:
    """A pencil (A, E) split into its decoupled states and its coupled core.

    A state is decoupled when its row and its column hold no off-diagonal
    entry, stored in either A or E (explicit zeros count): its equation of
    A + shift*E is the scalar one (a_ii + shift*e_ii) x_i = r_i.  The core
    is the pencil restricted to the other states.  A pencil with no
    decoupled state keeps A and E themselves as its core (``core`` None).
    """

    def __init__(self, A, E):
        if A.shape != E.shape or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(
                f"A {A.shape} and E {E.shape} must be square and equal-sized"
            )
        n = A.shape[0]
        coupled = np.zeros(n, dtype=bool)
        for X in (A, E):
            rows = X.indices
            cols = np.repeat(np.arange(n), np.diff(X.indptr))
            off = rows != cols
            coupled[rows[off]] = True
            coupled[cols[off]] = True
        self.n = n
        if coupled.all():
            self.core, self.dec = None, np.zeros(0, dtype=np.intp)
            self.A, self.E = A, E
            self.a_dec = self.e_dec = np.zeros(0)
            return
        self.core, self.dec = np.flatnonzero(coupled), np.flatnonzero(~coupled)
        self.A = A[self.core][:, self.core].tocsc()
        self.E = E[self.core][:, self.core].tocsc()
        self.a_dec = A.diagonal()[self.dec]
        self.e_dec = E.diagonal()[self.dec]


class ShiftedFactorization:
    """Reusable LU factorization of (A + shift*E), real for a real shift.

    The pencil is split into its decoupled states (rows and columns of A
    and E with no off-diagonal entry) and its coupled core: the decoupled
    states keep their pivots a_ii + shift*e_ii and are solved by a
    division, and SuperLU factors the core alone, with no call at all when
    the core is empty (a diagonal pencil, such as the check of a diagonal
    E).  A pencil with no decoupled state is factored whole.  ``split``
    passes the split of (A, E) when the caller already holds it
    (FactorizationCache); it is computed here otherwise.

    A non-finite entry or an exact zero pivot is reported at construction
    time, a roundoff pivot by a solve with
    max|m_ij| ||x_j||_1 > ||rhs_j||_1 / eps for a column j (a lower bound
    on cond_1 of M and M^T; max|m_ij| over both parts).  The factorization
    is read-only afterwards and may serve any number of right-hand sides;
    a complex one is solved against a real LU as its real and imaginary
    parts.
    """

    def __init__(self, A, E, shift, split=None):
        if split is None:
            split = _PencilSplit(_as_csc(A), _as_csc(E))
        self._split = split
        self.n = split.n
        self.shift = complex(shift)
        s = self.shift.real if self.shift.imag == 0 else self.shift
        d = split.a_dec + s * split.e_dec
        M = (split.A + s * split.E).tocsc()
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(M.data))):
            raise SingularShiftedMatrix(f"A + ({shift})*E has non-finite entries")
        if not d.all():
            raise SingularShiftedMatrix(
                f"A + ({shift})*E is singular: a decoupled state has a zero pivot")
        self._d = d
        self._dtype = M.dtype
        self._entry_max = max(np.abs(d).max(initial=0.0),
                              np.abs(M.data).max(initial=0.0))
        self._lu = None
        if M.shape[0]:
            try:
                # one-column panels: on narrow supernodes wider ones cost more than they save
                self._lu = splu(M, panel_size=1)
            except RuntimeError as exc:  # a zero pivot: "Factor is exactly singular"
                raise SingularShiftedMatrix(
                    f"A + ({shift})*E is singular: {exc}"
                ) from exc

    def _core_solve(self, rhs, trans):
        if np.iscomplexobj(rhs) and self._dtype.kind != "c":
            x = self._lu.solve(np.hstack([rhs.real, rhs.imag]), trans=trans)
            return x[:, : rhs.shape[1]] + 1j * x[:, rhs.shape[1]:]
        return self._lu.solve(np.asarray(rhs, dtype=self._dtype), trans=trans)

    def solve(self, rhs, trans="N"):
        """Solve (A + shift*E) X = rhs, or with trans='T' the plain
        transpose (A^T + shift*E^T) X = rhs.  A 1-D rhs is solved as one
        column and gives a 1-D result."""
        rhs = np.asarray(rhs)
        vector = rhs.ndim == 1
        rhs = rhs[:, None] if vector else np.atleast_2d(rhs)
        if rhs.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has {rhs.shape[0]} rows, expected {self.n}"
            )
        split = self._split
        if split.core is None:
            x = self._core_solve(rhs, trans)
        else:
            x = np.empty(rhs.shape, dtype=np.result_type(rhs, self._d, self._dtype))
            x[split.dec] = rhs[split.dec] / self._d[:, None]
            if self._lu is not None:
                x[split.core] = self._core_solve(rhs[split.core], trans)
        if not np.all(np.isfinite(x)):
            raise SingularShiftedMatrix(
                f"solve with shift {self.shift} produced non-finite values"
            )
        ones = np.ones(self.n)   # column sums by product: fast in any order
        growth = self._entry_max * (ones @ np.abs(x))
        if np.any(growth * np.finfo(float).eps > ones @ np.abs(rhs)):
            raise SingularShiftedMatrix(
                f"A + ({self.shift})*E is numerically singular")
        return x[:, 0] if vector else x


class FactorizationCache:
    """LUs of A + shift*E keyed by exact complex shift value.

    The pencil is split into decoupled states and coupled core once, here,
    and every LU of the cache (and of its ``transposed()`` cache) shares
    that split.  Holds the LU used last plus those of the shifts passed to
    ``declare_recurring``; the others are dropped when a new shift is asked
    for.  ``factor_count`` counts the LUs this cache made itself and
    ``solve_count`` the calls of its ``solve``.
    """

    def __init__(self, A, E, parent=None):
        self._A = _as_csc(A)
        self._E = _as_csc(E)
        self._parent = parent
        self._split = _PencilSplit(self._A, self._E) if parent is None else parent._split
        self._trans = "N" if parent is None else "T"
        self._store = {}
        self._recurring = set()
        self.factor_count = 0
        self.solve_count = 0

    def transposed(self):
        """Cache for A^T + shift*E^T that solves transposed with the LUs of
        A + shift*E: it borrows the ones this cache holds and makes (and
        counts) the others itself."""
        return FactorizationCache(self._A, self._E, parent=self)

    def declare_recurring(self, shifts):
        """Keep the LUs of these shifts for the life of the cache."""
        self._recurring.update(complex(s) for s in shifts)

    def __len__(self):
        return len(self._store)

    def get(self, shift):
        """The LU this cache solves with (of A + shift*E, applied
        transposed when the cache is)."""
        key = complex(shift)
        fac = self._store.get(key)
        if fac is None and self._parent is not None:
            fac = self._parent._store.get(key)
        if fac is None:
            fac = ShiftedFactorization(self._A, self._E, key, split=self._split)
            self.factor_count += 1
        self._store = {s: f for s, f in self._store.items() if s in self._recurring}
        self._store[key] = fac
        return fac

    def solve(self, shift, rhs):
        self.solve_count += 1
        return self.get(shift).solve(rhs, trans=self._trans)


def shifted_solve(A, E, shift, rhs):
    """Solve (A + shift*E) X = rhs for a square sparse pencil."""
    return ShiftedFactorization(A, E, shift).solve(rhs)


def _check_separation(lam_f, lam_g, scale):
    gap = np.min(np.abs(lam_f[:, None] - lam_g[None, :]))
    if gap <= 1e-12 * scale:
        raise SpectraOverlap(
            f"spectra separated by {gap:.3e} <= 1e-12 * {scale:.3e}"
        )


def _spectral_scale(*lams):
    return max(max(np.max(np.abs(lam), initial=0.0) for lam in lams), 1.0)


def _schur(a):
    """Schur form (T, Z) of a with a = Z T Z^H, plus the eigenvalues that
    LAPACK reads off T.  Real input gives the real quasi-triangular form;
    this is the call scipy.linalg.schur makes, eigenvalues kept."""
    if a.shape[0] == 0:
        return a.copy(), a.copy(), np.zeros(0, dtype=complex)
    gees, = spla.get_lapack_funcs(("gees",), (a,))
    lwork = int(gees(lambda *x: None, a, lwork=-1)[-2][0].real)
    res = gees(lambda *x: None, a, lwork=lwork)
    if res[-1] != 0:
        raise EigFailure(f"Schur form not found (gees info {res[-1]})")
    if len(res) == 7:  # real: t, sdim, wr, wi, vs, work, info
        return res[0], res[4], res[2] + 1j * res[3]
    return res[0], res[3], res[2]


@dataclass(frozen=True)
class SchurForm:
    """A square matrix a with its Schur decomposition a = Z T Z^H and the
    eigenvalues read off T.  Real input keeps the real quasi-triangular form
    unless the complex one is asked for, which holds its ``shifted`` factors.
    """

    a: np.ndarray
    T: np.ndarray
    Z: np.ndarray
    eigvals: np.ndarray
    _shifted: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __neg__(self):
        return SchurForm(-self.a, -self.T, self.Z, -self.eigvals)

    def extended(self, coupling, block):
        """SchurForm of [[a, coupling], [0, b]] from ``block``, the SchurForm
        of b: Z = diag(Z_a, Z_b) keeps T quasi-triangular, so a block
        triangular matrix is factored one diagonal block at a time."""
        zeros = np.zeros((block.a.shape[0], self.a.shape[0]))
        return SchurForm(
            np.block([[self.a, coupling], [zeros, block.a]]),
            np.block([[self.T, self.Z.conj().T @ coupling @ block.Z],
                      [zeros, block.T]]),
            block_diag2(self.Z, block.Z),
            np.concatenate([self.eigvals, block.eigvals]),
        )

    def block(self, lo, hi):
        """SchurForm of the diagonal block a[lo:hi, lo:hi], for lo and hi
        where Z is block diagonal (every boundary ``extended`` grew)."""
        return SchurForm(self.a[lo:hi, lo:hi], self.T[lo:hi, lo:hi],
                         self.Z[lo:hi, lo:hi], self.eigvals[lo:hi])

    def kron(self, n):
        """SchurForm of kron(a, I_n), factor by factor, so every eigenvalue
        repeats exactly n times on T's diagonal."""
        I = np.eye(n)
        return SchurForm(np.kron(self.a, I), np.kron(self.T, I),
                         np.kron(self.Z, I), np.repeat(self.eigvals, n))

    def shifted(self, mu):
        """T^T + mu I of a triangular T, lower triangular and column-major;
        made once per mu and held with the form."""
        if mu not in self._shifted:
            base = np.array(self.T, dtype=complex, order="C")
            base.flat[:: len(base) + 1] += mu
            base.flags.writeable = False
            self._shifted[mu] = base.T
        return self._shifted[mu]


def schur_form(a, output="real"):
    """SchurForm of a dense square matrix (one LAPACK gees call); with
    ``output="complex"`` the triangular form of real a, a kept real."""
    a, = _small_operands(a)
    return SchurForm(a, *_schur(a.astype(complex) if output == "complex" else a))


def _schur_of(a, form):
    """Schur factors of operand a, from ``form`` when the caller passed a's
    SchurForm and its type fits the data (trsyl needs a triangular T, so a
    real form does not serve complex data)."""
    if form is not None and (np.iscomplexobj(form.T) or not np.iscomplexobj(a)):
        return form.T, form.Z, form.eigvals
    return _schur(a)


def _trsyl(r, s, f, trana="N", isgn=1):
    """Solve op(r) Y + isgn Y s = f for Schur factors r, s."""
    trsyl, = spla.get_lapack_funcs(("trsyl",), (r, s, f))
    y, scale, info = trsyl(r, s, f, trana=trana, isgn=isgn)
    if info != 0:
        raise SpectraOverlap(f"trsyl info {info}: spectra too close")
    return y / scale


def _small_operands(*arrays):
    """The operands as 2-D arrays of one float or complex dtype; EigFailure
    when an entry is not finite."""
    arrays = [np.atleast_2d(np.asarray(a)) for a in arrays]
    dtype = np.result_type(*arrays, np.float64)
    arrays = [a.astype(dtype, copy=False) for a in arrays]
    if not all(np.isfinite(a).all() for a in arrays):
        raise EigFailure("small solve with non-finite coefficients")
    return arrays


def solve_small_sylvester(F, G, H):
    """Solve F X - X G + H = 0 for dense F (p x p), G (q x q), H (p x q).

    Bartels-Stewart: one Schur form of each side and LAPACK trsyl.  Raises
    SpectraOverlap when F and G share an eigenvalue within 1e-12 of the
    spectral scale, read off the Schur diagonals.  Real data give a real X.
    """
    F, G, H = _small_operands(F, G, H)
    if F.shape[0] != F.shape[1] or G.shape[0] != G.shape[1]:
        raise DimensionMismatch("F and G must be square")
    p, q = F.shape[0], G.shape[0]
    if H.shape != (p, q):
        raise DimensionMismatch(f"H has shape {H.shape}, expected {(p, q)}")
    if p == 0 or q == 0:
        return np.zeros((p, q), dtype=H.dtype)
    tg, zg, lam_g = _schur(G)
    tf, zf, lam_f = _schur(F)
    _check_separation(lam_f, lam_g, _spectral_scale(lam_f, lam_g))
    # F X - X G = -H with F = U R U^H, G = Z T Z^H: R Y - Y T = -U^H H Z
    y = _trsyl(tf, tg, zf.conj().T @ (-H @ zg), isgn=-1)
    X = zf @ y @ zg.conj().T
    X = X if np.iscomplexobj(H) else X.real
    if not np.isfinite(X).all():
        raise SpectraOverlap("small Sylvester solution is not finite")
    return X


def _woodbury(base, U, Gt):
    """Solver of (base + U Gt) y = r for a lower triangular ``base``, by
    Sherman-Morrison-Woodbury through the capacitance I + Gt base^-1 U
    (Golub & Van Loan, Matrix Computations, 4th ed., Sec. 2.1.4)."""
    trtrs, = spla.get_lapack_funcs(("trtrs",), (base,))

    def tri(b):
        x, info = trtrs(base, b, lower=1)
        if info:
            raise SpectraOverlap("shifted Schur factor is singular")
        return x

    if U is None:
        return tri
    BU = tri(U)
    K = Gt @ BU
    getrf, getrs = spla.get_lapack_funcs(("getrf", "getrs"), (K,))
    lu, piv, info = getrf(np.eye(len(K)) + K)
    scale = max(np.abs(K).sum(axis=0).max(initial=0.0), 1.0)
    if info < 0 or not np.min(np.abs(np.diagonal(lu))) > 1e-12 * scale:
        raise SpectraOverlap("singular capacitance: the shift is an "
                             "eigenvalue of the placed matrix")
    return lambda r: (x := tri(r)) - BU @ getrs(lu, piv, Gt @ x)[0]


def solve_placed_sylvester(form, kp, q, H, U=None, G=None):
    """Solve S^T t + t s + U (G^T t) = H for real t, with S the leading q x q
    block of ``form.a`` and s = S[kp:q, kp:q].

    ``form`` is the complex Schur form S = Z T Z^H of a real matrix, grown by
    ``extended`` so that Z is block diagonal with blocks ending at kp and q.
    H is q x (q - kp), U and G are q x p (U = None: no correction), all real.
    Column j of y = Z^T t Z_s, mu = T[kp+j, kp+j], solves against the form's
    own T^T + mu I (``shifted``) and a p x p capacitance matrix:
    (T^T + mu I + Z^T U G^T conj(Z)) y_j = (Z^T H Z_s)_j - y[:, :j] T[kp:kp+j, kp+j].
    A singular capacitance means mu is an eigenvalue of the placed matrix
    -S^T - U G^T and raises SpectraOverlap.  A real (quasi-triangular) form,
    or a Z not block diagonal at kp and q, raises ValueError.
    """
    if H.shape != (q, q - kp) or (
            U is not None and (len(U) != q or G.shape != U.shape)):
        raise DimensionMismatch(
            f"H must be {(q, q - kp)}, U and G of one shape with {q} rows")
    if not np.iscomplexobj(form.T) or any(
            form.Z[:b, b:].any() or form.Z[b:, :b].any() for b in (kp, q)):
        raise ValueError(f"need a complex form, Z block diagonal at {kp}, {q}")
    Z, T = form.Z[:q, :q], form.T
    Zs = Z[kp:, kp:]
    R = Z.T @ H @ Zs
    Gt = None if U is None else (G.T @ Z).conj()
    U = None if U is None else Z.T @ U
    solves, Y = {}, np.empty_like(R)
    for j in range(q - kp):
        mu = T[kp + j, kp + j]
        if mu not in solves:
            solves[mu] = _woodbury(form.shifted(mu)[:q, :q], U, Gt)
        Y[:, j] = solves[mu](R[:, j] - Y[:, :j] @ T[kp : kp + j, kp + j])
    t = (Z @ (Y.conj() @ Zs.T)).real   # conj(Z) Y Z_s^H, real for real data
    if not np.isfinite(t).all():
        raise SpectraOverlap("placed Sylvester solution is not finite")
    return t


def solve_small_lyapunov(F, Q):
    """Solve F* X + X F + Q = 0 for Hermitian Q; returns Hermitian X.

    One Schur form F = Z T Z^H (F may be passed as its SchurForm when the
    caller holds one): the separation check reads the eigenvalues off its
    diagonal and LAPACK trsyl solves T^H Y + Y T = -Z^H Q Z.  The result is
    symmetrized to suppress roundoff drift; real data give a real X, also
    through a complex form of real F.
    """
    f_form = F if isinstance(F, SchurForm) else None
    F, Q = _small_operands(F if f_form is None else f_form.a, Q)
    if F.shape[0] != F.shape[1] or Q.shape != F.shape:
        raise DimensionMismatch("F, Q must be square and equal-sized")
    qnorm = spla.norm(Q)
    if qnorm > 0 and spla.norm(Q - Q.conj().T) > 1e-10 * qnorm:
        raise NonHermitianRHS("Q deviates from Hermitian beyond 1e-10 relative")
    if F.shape[0] == 0:
        return np.zeros_like(Q)
    t, z, lam = _schur_of(F, f_form)
    _check_separation(lam.conj(), -lam, 2.0 * _spectral_scale(lam))
    y = _trsyl(t, t, z.conj().T @ (-Q @ z), trana="C")
    X = z @ y @ z.conj().T
    X = X if np.iscomplexobj(Q) else X.real
    if not np.isfinite(X).all():
        raise SpectraOverlap("small Lyapunov solution is not finite")
    return 0.5 * (X + X.conj().T)


def symmetric_inverse(a):
    """Inverse of a real symmetric matrix, read from its upper triangle,
    and the reciprocal of its 1-norm condition number, both from one
    factor: Cholesky (LAPACK potrf, pocon, potri) when a is positive
    definite, Bunch-Kaufman (sytrf, sycon, sytri) otherwise.  These are
    the factors scipy.linalg.inv takes for a symmetric matrix, so the
    inverse has the same bits.  An exactly singular a gives rcond 0 and
    no inverse."""
    a, = _small_operands(a)
    anorm = np.abs(a).sum(axis=0).max(initial=0.0)
    potrf, pocon, potri = spla.get_lapack_funcs(("potrf", "pocon", "potri"), (a,))
    c, info = potrf(a)
    if info == 0:
        rcond, _ = pocon(c, anorm)
        inv, _ = potri(c)
    else:
        sytrf, sycon, sytri = spla.get_lapack_funcs(("sytrf", "sycon", "sytri"), (a,))
        c, ipiv, info = sytrf(a)
        if info != 0:
            return None, 0.0
        rcond, _ = sycon(c, ipiv, anorm)
        inv, _ = sytri(c, ipiv)
    return np.triu(inv) + np.triu(inv, 1).T, float(rcond)


def small_eig(F, E=None):
    """Eigendecomposition of F (or of the pencil (F, E)).

    Returns (eigenvalues, right_vectors, left_rows) with
    F @ right = right @ diag(w) (pencil form E^{-1} F when E is given) and
    left_rows = inv(right), so that residues are left_rows[l] @ B.
    """
    F = np.atleast_2d(np.asarray(F))
    if E is not None:
        E = np.atleast_2d(np.asarray(E))
        if E.shape != F.shape:
            raise DimensionMismatch("E must match F")
        try:
            F = spla.solve(E, F)
        except spla.LinAlgError as exc:
            raise EigFailure(f"singular E in pencil eig: {exc}") from exc
    try:
        w, T = spla.eig(F)
        Tl = spla.inv(T)
    except (spla.LinAlgError, np.linalg.LinAlgError) as exc:
        raise EigFailure(str(exc)) from exc
    return w, T, Tl


def gram_norm2(Z, M=None, Z2=None):
    """Spectral norm of Z @ M @ Z2* without forming the large product.

    Z2 defaults to Z (the symmetric case) and M to the identity.  Only Gram
    matrices of the thin factors enter, so the cost is governed by the
    factor widths.
    """
    Z = np.atleast_2d(np.asarray(Z))
    Z2 = Z if Z2 is None else np.atleast_2d(np.asarray(Z2))
    r, r2 = Z.shape[1], Z2.shape[1]
    if M is None:
        if r != r2:
            raise DimensionMismatch("identity middle needs equal factor widths")
        M = np.eye(r)
    else:
        M = np.atleast_2d(np.asarray(M))
        if M.shape != (r, r2):
            raise DimensionMismatch(
                f"middle has shape {M.shape}, expected {(r, r2)}"
            )
    if r == 0 or r2 == 0:
        return 0.0
    G1 = Z.conj().T @ Z
    G2 = G1 if Z2 is Z else Z2.conj().T @ Z2
    # ||Z M Z2*||^2 = lambda_max(M* G1 M G2); the product is similar to a PSD
    # matrix so its eigenvalues are real and nonnegative up to roundoff.
    vals = spla.eigvals(M.conj().T @ G1 @ M @ G2)
    return float(np.sqrt(max(np.max(vals.real, initial=0.0), 0.0)))


def block_diag2(a, b):
    """[[a, 0], [0, b]] for two dense 2-D blocks, in their common dtype."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                   dtype=np.result_type(a, b))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out
