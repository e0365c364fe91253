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
of A + shift*E (trans='T', no conjugation, so complex shifts are fine) and
borrows the LUs its parent holds: one LU per shift serves both sides of a
single system.

Each pencil is split once (per cache, or per one-off factorization) into
its decoupled states and its coupled core.  A state is decoupled when its
row and its column hold no off-diagonal entry in A or in E, so its
equation is the scalar (a_ii + shift*e_ii) x_i = r_i: a factorization
keeps these pivots and a solve divides by them.  Only the core is
factored, with no LU at all when it is empty (the check of a diagonal E);
a pencil with no decoupled state is factored whole, as it is.  A new
shift still counts as one factorization.  penzl's pencils are 6 coupled
states and n - 6 decoupled ones; the RLC ladders have none.

A core of at least 3 states whose stored entries all lie within one
diagonal of the main one, in their stored order, is tridiagonal (the RLC
ladders): the split builds its bands once, at the first factorization,
and each shift is factored by LAPACK gttrf (partial pivoting) and solved
by gttrs (LAPACK Users' Guide, Anderson et al., 3rd ed., SIAM 1999), in
O(n) work and memory.  When the whole pencil is such a core, a solve works
only on the rows its solution reaches.  The band splits into independent
blocks where the off-diagonals of A and E are both zero (the ladders' two
ports), and each block the right-hand side touches is solved on a window
from its first row, by gttrs on slices of the whole factors.  The window
grows until the solution has decayed below tiny (decay of banded inverses:
Demko, Moss & Smith, Math. Comp. 43, 1984), the solution is exactly zero
past it, and ``FactorizationCache.reach`` reports the rows that solves have
reached.  Every other core goes to SuperLU, with a panel of one column
(``panel_size=1``): the pencils here fill little, their supernodes are one
or two columns wide, and a wider panel's workspace and per-panel work cost
more than they save (``tools/superlu_panel_sweep.py``).

Every small Sylvester solve goes through a Schur form.  An extraction
solves S^T t + t s + U (G^T t) = H against the complex Schur form of S that
its side holds: column by column (Golub, Nash & Van Loan, IEEE TAC 24(6),
1979) with one shifted triangular factor per distinct eigenvalue of s,
shared by every equation of the side, and the rank-p correction U G^T by
Sherman-Morrison-Woodbury.  The equations of a side that consume the same
columns go through one call, stacked: each triangular solve and product
covers all of them, and only the p x p capacitance is per equation.
Residual norms are read off the factors' Grams, which a caller may hold
instead of the factors (``gram_norm2``).  Any other F X - X G + H = 0 goes
through Bartels-Stewart on plain matrices: one Schur form per side,
eigenvalues read off the Schur diagonals for the separation check, and
LAPACK trsyl.  A small Lyapunov solve takes a stack of right-hand sides
against one F, with one Schur form and one trsyl call for all of them.
"""

from dataclasses import dataclass, field
from functools import cached_property

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
    "small_inverse",
    "small_eig",
    "gram_norm2",
    "block_diag2",
]


# Rows past a right-hand side's last nonzero row in a block that a windowed
# solve's first window takes (``ShiftedFactorization._windows``).
_WINDOW_MARGIN = 256


def _as_csc(A):
    if sps.issparse(A):
        return A.tocsc()
    return sps.csc_matrix(np.atleast_2d(A))


class _PencilSplit:
    """A pencil (A, E) split into its decoupled states and its coupled core.

    A state is decoupled when its row and its column hold no off-diagonal
    entry, stored in either A or E (explicit zeros count): its equation of
    A + shift*E is the scalar one (a_ii + shift*e_ii) x_i = r_i.  The core
    is the pencil restricted to the other states.  ``a_dec`` and ``e_dec``
    are the diagonals of A and E over all n states, each core slot holding
    a copy of the first decoupled state's entry, so that a pivot vector
    formed from them divides a whole right-hand side and its core slots
    repeat a decoupled pivot.  A pencil with no decoupled state keeps A and
    E themselves as its core (``core`` None).
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
        self.ends = {}   # block start -> end of the largest window solved there
        if coupled.all():
            self.core, self.dec = None, np.zeros(0, dtype=np.intp)
            self.A, self.E = A, E
            self.a_dec = self.e_dec = np.zeros(0)
            return
        self.core, self.dec = np.flatnonzero(coupled), np.flatnonzero(~coupled)
        self.A = A[self.core][:, self.core].tocsc()
        self.E = E[self.core][:, self.core].tocsc()
        self.a_dec, self.e_dec = A.diagonal(), E.diagonal()
        for diag in (self.a_dec, self.e_dec):
            diag[self.core] = diag[self.dec[0]]

    @cached_property
    def bands(self):
        """The core's bands of A and E when every stored entry of the core
        lies within one diagonal of the main one, in its stored order: per
        matrix a 3 x m array of its super-, main and sub-diagonal, each
        entry in its column's slot, so the super-diagonal fills slots 1 to
        m - 1 and the sub-diagonal slots 0 to m - 2; then the first rows of
        the band's independent blocks, m appended.  A block starts at row i
        where entries (i - 1, i) and (i, i - 1) are zero in both A and E, so
        every shifted pencil is block diagonal there and gttrf factors each
        block as if alone; a block is kept at 3 rows or more (gttrs solves
        no fewer).  None for any other core, a complex one, or one of fewer
        than 3 states (which LAPACK's gttrf wrapper rejects).  Read first
        by a factorization, so a split that is never factored does not
        build them."""
        m = self.A.shape[0]
        if m < 3:
            return None
        bands = []
        for X in (self.A, self.E):
            cols = np.repeat(np.arange(m), np.diff(X.indptr))
            off = X.indices - cols
            if np.iscomplexobj(X.data) or off.size and (off.min() < -1 or off.max() > 1):
                return None
            # entry (i, j) to row i - j + 1, column j, in place; duplicates
            # sum, as in the matrix
            off += 1
            off *= m
            off += cols
            bands.append(np.bincount(off, weights=X.data, minlength=3 * m).reshape(3, m))
        # link[i - 1]: rows i - 1 and i are coupled in A or E
        link = np.zeros(m - 1, dtype=bool)
        for band in bands:
            link |= (band[0, 1:] != 0) | (band[2, :-1] != 0)
        starts = [0]
        for i in np.flatnonzero(~link) + 1:
            if i - starts[-1] >= 3 and m - i >= 3:
                starts.append(int(i))
        return (*bands, np.array(starts + [m]))

    @property
    def windowed(self):
        """Whether solves run on windows of the band's blocks: a tridiagonal
        pencil with no decoupled state."""
        return self.core is None and self.bands is not None

    @property
    def reach(self):
        """Row slices that cover every row a solve of this split returned
        nonzero: per block a solve has touched, from its first row to the
        end of the largest window used on it, a slice that reaches the next
        one joined with it; all rows unless ``windowed``."""
        if not self.windowed:
            return [slice(0, self.n)]
        out = []
        for lo, end in sorted(self.ends.items()):
            if out and out[-1].stop == lo:
                out[-1] = slice(out[-1].start, end)
            else:
                out.append(slice(lo, end))
        return out


class ShiftedFactorization:
    """Reusable LU factorization of (A + shift*E), real for a real shift.

    The pencil is split into its decoupled states (rows and columns of A
    and E with no off-diagonal entry) and its coupled core: the decoupled
    states keep their pivots a_ii + shift*e_ii, as an n-vector whose core
    slots repeat a decoupled pivot, and are solved by one division of the
    whole right-hand side whose core rows are then overwritten; the core
    alone is factored, with no LU at all when it is empty (a diagonal
    pencil, such as the check of a diagonal E).  A tridiagonal core (the
    split's ``bands``) is factored by LAPACK gttrf from its bands
    a + shift*e and solved by gttrs, any other by SuperLU.  A pencil with no
    decoupled state is factored whole.  ``split`` passes the split of
    (A, E) when the caller already holds it (FactorizationCache); it is
    computed here otherwise.

    A non-finite entry or an exact zero pivot (of SuperLU or gttrf) is
    reported at construction time, a roundoff pivot by a solve with
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
        if split.bands is not None:
            M = vals = split.bands[0] + s * split.bands[1]
        else:
            M = (split.A + s * split.E).tocsc()
            vals = M.data
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(vals))):
            raise SingularShiftedMatrix(f"A + ({shift})*E has non-finite entries")
        if not d.all():
            raise SingularShiftedMatrix(
                f"A + ({shift})*E is singular: a decoupled state has a zero pivot")
        self._d = d
        self._dtype = M.dtype
        self._entry_max = max(np.abs(d).max(initial=0.0),
                              np.abs(vals).max(initial=0.0))
        self._lu = self._gt = None
        if split.bands is not None:
            gttrf, self._gttrs = spla.get_lapack_funcs(("gttrf", "gttrs"), (M,))
            *self._gt, info = gttrf(M[2, :-1], M[1], M[0, 1:],
                                    overwrite_dl=1, overwrite_d=1, overwrite_du=1)
            if info > 0:
                raise SingularShiftedMatrix(
                    f"A + ({shift})*E is singular: zero pivot {info} of the tridiagonal LU")
        elif M.shape[0]:
            try:
                # one-column panels: on narrow supernodes wider ones cost more than they save
                self._lu = splu(M, panel_size=1)
            except RuntimeError as exc:  # a zero pivot: "Factor is exactly singular"
                raise SingularShiftedMatrix(
                    f"A + ({shift})*E is singular: {exc}"
                ) from exc

    def _core_solve(self, rhs, trans, rows=None):
        """The core's solve; with ``rows`` = (lo, hi), rows lo:hi of a
        banded core alone, from the slices of its gttrf factors."""
        if np.iscomplexobj(rhs) and self._dtype.kind != "c":
            x = self._core_solve(np.hstack([rhs.real, rhs.imag]), trans, rows)
            return x[:, : rhs.shape[1]] + 1j * x[:, rhs.shape[1]:]
        rhs = np.asarray(rhs, dtype=self._dtype)
        if self._gt is None:
            return self._lu.solve(rhs, trans=trans)
        gt = self._gt
        if rows is not None:
            lo, hi = rows
            dl, d, du, du2, ipiv = gt
            gt = (dl[lo:hi - 1], d[lo:hi], du[lo:hi - 1], du2[lo:hi - 2], ipiv[lo:hi] - lo)
        return self._gttrs(*gt, rhs, trans=trans)[0]

    def _windows(self, rhs, trans):
        """Solve a windowed pencil block by block; returns the solution and
        its windows (row slices), outside which it is exactly zero.

        A block the right-hand side does not touch is skipped.  On a
        touched block [lo, hi) the window is [lo, w), w the larger of the
        right-hand side's last nonzero row plus ``_WINDOW_MARGIN`` and the
        largest window the split has used there; it doubles, up to hi,
        until the solution's last two rows are below ``tiny`` in every
        column.  Padded with zeros, that solution solves the whole system
        up to a right-hand-side perturbation of about 3 max|m_ij| tiny:
        only the window's last rows and row w can leave a residual, made of
        those two rows times entries of the pencil.  A window that covers
        its block joins the next block's in one gttrs call, which gives the
        same bits: the factors hold exact zeros between blocks."""
        split, c = self._split, rhs.shape[1]
        starts = split.bands[2].tolist()
        nz = rhs.ravel() != 0   # row-major, c entries per row
        spans = []   # [first row, last block's first row, window end, block end]
        for lo, hi in zip(starts[:-1], starts[1:]):
            seg = nz[lo * c : hi * c]
            if not seg.any():
                continue
            last = len(seg) - 1 - int(np.argmax(seg[::-1]))
            w = min(hi, max(lo + last // c + 1 + _WINDOW_MARGIN, split.ends.get(lo, lo)))
            if spans and spans[-1][2] == lo:
                spans[-1][1:] = [lo, w, hi]
            else:
                spans.append([lo, lo, w, hi])
            split.ends[lo] = w
        # column-major, as gttrs returns it
        x = np.zeros(rhs.shape, dtype=np.result_type(rhs, self._dtype), order="F")
        tiny = np.finfo(float).tiny
        windows = []
        for first, lo, w, hi in spans:
            while True:
                xw = self._core_solve(rhs[first:w], trans, (first, w))
                if w == hi or not (np.abs(xw[-2:]) >= tiny).any():
                    break
                w = min(hi, lo + 2 * (w - lo))
            split.ends[lo] = w
            x[first:w] = xw
            windows.append(slice(first, w))
        return x, windows

    def solve(self, rhs, trans="N"):
        """Solve (A + shift*E) X = rhs, or with trans='T' the plain
        transpose (A^T + shift*E^T) X = rhs.  A 1-D rhs is solved as one
        column and gives a 1-D result.  A windowed pencil (the split's
        ``windowed``) is solved on the rows its solution reaches
        (``_windows``), and checked there."""
        rhs = np.asarray(rhs)
        vector = rhs.ndim == 1
        rhs = rhs[:, None] if vector else np.atleast_2d(rhs)
        if rhs.shape[0] != self.n:
            raise DimensionMismatch(
                f"rhs has {rhs.shape[0]} rows, expected {self.n}"
            )
        split = self._split
        rows = [slice(None)]
        if split.windowed:
            x, rows = self._windows(rhs, trans)
        elif split.core is None:
            x = self._core_solve(rhs, trans)
        else:
            x = rhs / self._d[:, None]
            if len(split.core):
                x[split.core] = self._core_solve(rhs[split.core], trans)
        parts = [(x[r], rhs[r]) for r in rows]
        if not all(np.all(np.isfinite(xp)) for xp, _ in parts):
            raise SingularShiftedMatrix(
                f"solve with shift {self.shift} produced non-finite values"
            )
        # column sums by product: fast in any order
        growth = self._entry_max * sum(np.ones(len(xp)) @ np.abs(xp) for xp, _ in parts)
        if np.any(growth * np.finfo(float).eps > sum(np.ones(len(bp)) @ np.abs(bp)
                                                     for _, bp in parts)):
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

    @property
    def reach(self):
        """Row slices that cover every row this cache's solves returned
        nonzero (the split's ``reach``, so they cover the solves of every
        cache that shares it): all rows for any non-tridiagonal or split
        pencil."""
        return self._split.reach

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


def solve_placed_sylvester(form, kp, q, H, U, G=None):
    """Solve S^T t_i + t_i s + U_i (G^T t_i) = H_i for real t_i, i = 1..r,
    with S the leading q x q block of ``form.a`` and s = S[kp:q, kp:q]: the
    r equations of one side that consume the same columns kp:q.

    ``form`` is the complex Schur form S = Z T Z^H of a real matrix, grown by
    ``extended`` so that Z is block diagonal with blocks ending at kp and q.
    H is r x q x (q - kp), the records' right-hand sides stacked; U is a list
    of r blocks U_i, each q x p or None (no correction); G is q x p; all real.
    Column j of Y_i = Z^T t_i Z_s, mu = T[kp+j, kp+j], solves
    (T^T + mu I + Z^T U_i G^T conj(Z)) y_ij = (Z^T H_i Z_s)_j - Y_i[:, :j] T[kp:kp+j, kp+j]
    by Sherman-Morrison-Woodbury on the form's own T^T + mu I (``shifted``;
    Golub & Van Loan, Matrix Computations, 4th ed., Sec. 2.1.4).  The
    records share everything but their right-hand sides and U_i, so per
    distinct mu one triangular solve covers every U_i, and per column one
    covers every record's right-hand side and one product with
    Gt = (G^T Z)^* every record's correction; each record keeps its own
    p x p capacitance I + Gt (T^T + mu I)^-1 Z^T U_i.

    Returns (t, failed): t is r x q x (q - kp), and ``failed`` maps the
    index of each record whose capacitance is singular (mu is an eigenvalue
    of its placed matrix -S^T - U_i G^T) to the SpectraOverlap that says
    so; that record's t is not a solution.  A failure the records share, a
    singular shifted factor or a non-finite t of a record that did not
    fail, raises SpectraOverlap.  A real (quasi-triangular) form, or a Z
    not block diagonal at kp and q, raises ValueError.
    """
    r, wid = len(H), q - kp
    if H.shape != (r, q, wid) or len(U) != r or any(
            u is not None and (G is None or u.shape != (q, G.shape[1])
                               or len(G) != q) for u in U):
        raise DimensionMismatch(
            f"H must be r x {q} x {wid} for r = len(U), each U_i and G "
            f"of one shape with {q} rows")
    if not np.iscomplexobj(form.T) or any(
            form.Z[:b, b:].any() or form.Z[b:, :b].any() for b in (kp, q)):
        raise ValueError(f"need a complex form, Z block diagonal at {kp}, {q}")
    Z, T = form.Z[:q, :q], form.T
    Zs = Z[kp:, kp:]
    R = Z.T @ H @ Zs
    trtrs, getrf, getrs = spla.get_lapack_funcs(("trtrs", "getrf", "getrs"), (T,))

    def tri(base, b):
        x, info = trtrs(base, b, lower=1)
        if info:
            raise SpectraOverlap("shifted Schur factor is singular")
        return x

    fixed = [i for i, u in enumerate(U) if u is not None]   # records with a U_i
    if fixed:
        p = G.shape[1]
        Gt = (G.T @ Z).conj()
        ZU = Z.T @ np.hstack([U[i] for i in fixed])
    failed, solvers, Y = {}, {}, np.empty_like(R)
    for j in range(wid):
        mu = T[kp + j, kp + j]
        if mu not in solvers:
            base, caps = form.shifted(mu)[:q, :q], {}
            if fixed:
                BU = tri(base, ZU)
                # each record's Gt BU_i, p x p, and its capacitance's LU
                K = (Gt @ BU).reshape(p, len(fixed), p).swapaxes(0, 1)
                lus = [getrf(np.eye(p) + Ki) for Ki in K]
                scale = np.maximum(np.abs(K).sum(axis=1).max(axis=1), 1.0)
                pivot = [np.abs(np.diagonal(lu)).min() for lu, _, _ in lus]
                for c, (i, (lu, piv, info)) in enumerate(zip(fixed, lus)):
                    if info < 0 or not pivot[c] > 1e-12 * scale[c]:
                        failed.setdefault(i, SpectraOverlap(
                            "singular capacitance: the shift is an eigenvalue "
                            "of the placed matrix"))
                    else:
                        caps[i] = BU[:, c * p:(c + 1) * p], lu, piv
            solvers[mu] = base, caps
        base, caps = solvers[mu]
        X = tri(base, (R[:, :, j] - Y[:, :, :j] @ T[kp : kp + j, kp + j]).T)
        Y[:, :, j] = X.T
        if caps:
            GX = Gt @ X
            for i, (BUi, lu, piv) in caps.items():
                Y[i, :, j] -= BUi @ getrs(lu, piv, GX[:, i])[0]
    t = (Z @ (Y.conj() @ Zs.T)).real   # conj(Z) Y Z_s^H, real for real data
    if not np.isfinite(np.delete(t, list(failed), axis=0)).all():
        raise SpectraOverlap("placed Sylvester solution is not finite")
    return t, failed


def solve_small_lyapunov(F, Q):
    """Solve F* X + X F + Q = 0 for Hermitian Q, or for each Q_i of a stack
    Q (r x n x n); returns Hermitian X of Q's shape.

    One Schur form F = Z T Z^H: the separation check reads the eigenvalues
    off its diagonal, and one LAPACK trsyl call solves
    T^H [Y_1 ... Y_r] + [Y_1 ... Y_r] diag(T, ..., T) = -Z^H [Q_1 Z ... Q_r Z].
    The result is symmetrized to suppress roundoff drift; real data give a
    real X.
    """
    F, Q = _small_operands(F, Q)
    n = F.shape[0]
    if F.shape != (n, n) or Q.shape[-2:] != (n, n) or Q.ndim > 3:
        raise DimensionMismatch("F must be square and Q one or a stack of its size")
    # operands are checked finite already
    asym = np.linalg.norm(Q - Q.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(asym > 1e-10 * np.linalg.norm(Q, axis=(-2, -1))):
        raise NonHermitianRHS("Q deviates from Hermitian beyond 1e-10 relative")
    if n == 0:
        return np.zeros_like(Q)
    t, z, lam = _schur(F)
    _check_separation(lam.conj(), -lam, 2.0 * _spectral_scale(lam))
    Qs = Q.reshape(-1, n, n)
    r = len(Qs)
    tt = np.zeros((r * n, r * n), dtype=t.dtype)   # diag(t, ..., t)
    for i in range(0, r * n, n):
        tt[i:i + n, i:i + n] = t
    c = np.hstack(z.conj().T @ (-Qs @ z))
    y = _trsyl(t, tt, c, trana="C").reshape(n, r, n).swapaxes(0, 1)
    X = (z @ y @ z.conj().T).reshape(Q.shape)
    X = X if np.iscomplexobj(Q) else X.real
    if not np.isfinite(X).all():
        raise SpectraOverlap("small Lyapunov solution is not finite")
    return 0.5 * (X + X.conj().swapaxes(-1, -2))


def symmetric_inverse(a):
    """Inverse of a real symmetric matrix, read from its upper triangle,
    and the reciprocal of its 1-norm condition number, both from one
    factor: Cholesky (LAPACK potrf, pocon, potri) when a is positive
    definite, Bunch-Kaufman (sytrf, sycon, sytri) otherwise, and the
    reciprocals of the diagonal when a is diagonal.  These are the routes
    scipy.linalg.inv takes for a symmetric matrix, so the inverse has the
    same bits.  An exactly singular a gives rcond 0 and no inverse."""
    a, = _small_operands(a)
    d = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(d):   # diagonal, or singular
        mag = np.abs(d)
        if not mag.all():
            return None, 0.0
        return np.diag(1.0 / d), float(mag.min() / mag.max())
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
    for j in range(len(inv) - 1):   # the lower triangle from the upper
        inv[j + 1:, j] = inv[j, j + 1:]
    return inv, float(rcond)


def small_inverse(a):
    """Inverse of a real square matrix and the reciprocal of its 1-norm
    condition number, both from one factor, by the route scipy.linalg.inv
    takes for a's structure, so with its bits: ``symmetric_inverse`` for a
    symmetric a (a diagonal one included), LAPACK trtri and trcon for a
    triangular one, and getrf, gecon and getri for any other.  An exactly
    singular a gives rcond 0 and no inverse."""
    a, = _small_operands(a)
    if np.array_equal(a, a.T):
        return symmetric_inverse(a)
    for lower, outside in ((0, np.tril(a, -1)), (1, np.triu(a, 1))):
        if not outside.any():
            trtri, trcon = spla.get_lapack_funcs(("trtri", "trcon"), (a,))
            inv, info = trtri(a, lower=lower)
            if info:
                return None, 0.0
            return inv, float(trcon(a, norm="1", uplo="L" if lower else "U")[0])
    getrf, gecon, getri = spla.get_lapack_funcs(("getrf", "gecon", "getri"), (a,))
    lu, piv, info = getrf(a)
    if info:
        return None, 0.0
    rcond, _ = gecon(lu, np.abs(a).sum(axis=0).max(), norm="1")
    inv, _ = getri(lu, piv)
    return inv, float(rcond)


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


def gram_norm2(Z, M=None, Z2=None, grams=False):
    """Spectral norm of Z @ M @ Z2* without forming the large product.

    Z2 defaults to Z (the symmetric case) and M to the identity.  Only Gram
    matrices of the thin factors enter, so the cost is governed by the
    factor widths.  With ``grams`` the caller passes those Grams, Z* Z and
    Z2* Z2, in place of the factors, and nothing of the factors' length is
    computed.
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
    G1 = Z if grams else Z.conj().T @ Z
    G2 = G1 if Z2 is Z else Z2 if grams else Z2.conj().T @ Z2
    # ||Z M Z2*||^2 = lambda_max(M* G1 M G2); the product is similar to a PSD
    # matrix so its eigenvalues are real and nonnegative up to roundoff.
    vals = _eigvals(M.conj().T @ G1 @ M @ G2)
    return float(np.sqrt(max(np.max(vals.real, initial=0.0), 0.0)))


def _eigvals(a):
    """Eigenvalues of a small square matrix from the LAPACK geev call that
    scipy.linalg.eigvals makes, so with its bits, without the wrapper that
    costs most of the call at the widths of a residual factor."""
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    geev, geev_lwork = spla.get_lapack_funcs(("geev", "geev_lwork"), (a,))
    lwork = int(geev_lwork(len(a), compute_vl=0, compute_vr=0)[0].real)
    *w, _, _, info = geev(a, lwork=lwork, compute_vl=0, compute_vr=0)
    if info:
        raise np.linalg.LinAlgError(f"eigenvalues did not converge (geev info {info})")
    return w[0] if len(w) == 1 else w[0] + 1j * w[1]


def block_diag2(a, b):
    """[[a, 0], [0, b]] for two dense 2-D blocks, in their common dtype."""
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                   dtype=np.result_type(a, b))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out
