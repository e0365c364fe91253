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

A pencil with no decoupled state whose stored entries all lie within one
diagonal of the main one, in their stored order, is tridiagonal (the RLC
ladders): the split builds its bands once, at the first factorization, and
each shift is factored by LAPACK gttrf (partial pivoting) and solved by
gttrs (LAPACK Users' Guide, Anderson et al., 3rd ed., SIAM 1999), in O(n)
work and memory.  A solve works only on the rows its solution reaches.
The band splits into independent blocks where the off-diagonals of A and
E are both zero (the ladders' two ports), and each block the right-hand
side touches is solved on a window from its first row, by one gttrs call
on the block's factors.  The window grows until the solution has decayed
below tiny (decay of banded inverses: Demko, Moss & Smith, Math. Comp. 43,
1984), and the solution is exactly zero past it.  The rows the split's
solves have reached form its row frame (``RowFrame``,
``FactorizationCache.frame``), in stored order; a caller holds its n-row
arrays on the frame alone, passes right-hand sides on it and takes
solutions on it, lifts what it holds when the frame grows, and reads the
pencil on the frame off the bands (``RowFrame.pencil``).  Each block is
factored from its first row: a cache's LU on the rows the windows reach
plus one, and again from the first row when a later window passes them
(under partial pivoting a tridiagonal LU's first w rows depend only on the
pencil's first w + 1, so those rows have a whole-band gttrf's bits), a
one-off LU on every block whole.  Every other pencil has the full frame,
all n rows, on which nothing is gathered, scattered or copied.  The
finiteness and growth checks of a factorization read the split's max|A|
and max|E|, and form the shifted entries only when that bound cannot
settle them.  Every other core, a tridiagonal one beside decoupled states
included, goes to SuperLU, with a panel of one column (``panel_size=1``):
the pencils here fill little, their supernodes are one or two columns
wide, and a wider panel's workspace and per-panel work cost more than they
save (``tools/superlu_panel_sweep.py``).

Every small Sylvester solve goes through a Schur form.  An extraction
solves S^T t + t s + U (G^T t) = H against the complex Schur form of S that
its side holds: column by column (Golub, Nash & Van Loan, IEEE TAC 24(6),
1979) with one shifted triangular factor per distinct eigenvalue of s and
call, shared by every equation of the side, and the rank-p correction
U G^T by Sherman-Morrison-Woodbury.  The equations of a side that consume
the same columns go through one call, stacked: each triangular solve and
product covers all of them, and only the p x p capacitance is per
equation.  Residual norms are read off the factors' Grams, which a caller
may hold instead of the factors (``gram_norm2``).  Any other
F X - X G + H = 0 goes through Bartels-Stewart: one Schur form per side
(a SchurForm operand, or a matrix factored in the call), eigenvalues read
off the Schur diagonals for the separation check, and LAPACK trsyl.  A
small Lyapunov solve of a stack of right-hand sides is one trsyl call.
"""

import bisect
import warnings
from dataclasses import dataclass
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
    "RowFrame",
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


class RowFrame:
    """Rows of an n-row space that hold every nonzero row of the arrays on
    it, in stored order: an array on the frame holds those rows alone.

    ``rows`` None is the full frame, all n rows, on which ``gather`` and
    ``scatter`` return their operand itself.  ``edge`` holds the positions
    of the frame rows that the pencil may couple to rows off the frame;
    every solution is zero on them.  ``bands`` are the tridiagonal bands of
    A and E of the split that made the frame (``_PencilSplit.frame``),
    which ``pencil`` reads.
    """

    def __init__(self, n, rows=None, edge=(), bands=()):
        self.n, self.rows, self.bands = n, rows, bands
        self.edge = np.asarray(edge, dtype=np.intp)

    @property
    def full(self):
        return self.rows is None

    def __len__(self):
        return self.n if self.rows is None else len(self.rows)

    def gather(self, M):
        """The frame rows of an n-row array."""
        return M if self.rows is None else M[self.rows]

    def scatter(self, M):
        """The n-row array that is M on the frame rows and zero elsewhere."""
        if self.rows is None:
            return M
        out = np.zeros((self.n,) + M.shape[1:], dtype=M.dtype)
        out[self.rows] = M
        return out

    def lift(self, M, old):
        """M, an array on ``old``, an earlier frame of the same rows, on this
        frame, in M's memory order: zero on the rows old lacks.  From the
        full frame (a side before its first solve) it is M's rows on this
        frame, which must hold all of M's nonzero rows."""
        if len(old) == len(self):
            return M
        if old.full:
            out = M[self.rows]
            assert np.count_nonzero(out) == np.count_nonzero(M), "rows off the frame"
            return out
        out = np.zeros_like(M, shape=(len(self),) + M.shape[1:])
        out[old.rows if self.full else np.searchsorted(self.rows, old.rows)] = M
        return out

    @cached_property
    def pencil(self):
        """(A, E) on the frame's rows and columns, in CSC, read off the
        frame rows of their ``bands``, made once per frame."""
        return tuple(self._restrict(band) for band in self.bands)

    def _restrict(self, band):
        """The tridiagonal matrix of ``band`` on the frame.  The entries
        that couple a run of consecutive frame rows to the rows beside it
        are dropped; asserts that they are zero but at the ``edge``, so that
        M X vanishes off the frame for every X on it that is zero there."""
        rows = self.rows
        above = np.diff(rows, prepend=-2) == 1   # row r - 1 is on the frame
        below = np.diff(rows, append=-1) == 1    # row r + 1 is
        # per frame row r, its column's entries in rows r - 1, r, r + 1; its
        # row's entries (r, r - 1) and (r, r + 1) are in the neighbouring
        # columns' slots, read cyclically (slot 2 of column n - 1 and slot 0
        # of column 0 hold nothing)
        col = band[:, rows].T
        left, right = band[2].take(rows - 1, mode="wrap"), band[0].take(rows + 1, mode="wrap")
        dropped = (~above & ((col[:, 0] != 0) | (left != 0))
                   | ~below & ((col[:, 2] != 0) | (right != 0)))
        assert np.isin(np.flatnonzero(dropped), self.edge).all(), "coupled off the edge"
        col[~above, 0] = col[~below, 2] = 0
        keep = col != 0
        indptr = np.r_[0, np.cumsum(keep.sum(axis=1))]
        at = np.arange(len(rows))[:, None] + np.arange(-1, 2)
        return sps.csc_matrix((col[keep], at[keep], indptr), shape=(len(rows),) * 2)


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
        self._frame = RowFrame(n)
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
        """The bands of A and E when the pencil has no decoupled state and
        every stored entry lies within one diagonal of the main one, in its
        stored order: per matrix a 3 x n array of its super-, main and
        sub-diagonal, each entry in its column's slot, so the
        super-diagonal fills slots 1 to n - 1 and the sub-diagonal slots 0
        to n - 2; then the first rows of the band's independent blocks, n
        appended.  A block starts at row i where entries (i - 1, i) and
        (i, i - 1) are zero in both A and E, so every shifted pencil is
        block diagonal there and gttrf factors each block as if alone; a
        block is kept at 3 rows or more (gttrs solves no fewer).  None for
        any other pencil, a complex one, or one of fewer than 3 states
        (which LAPACK's gttrf wrapper rejects).  Read first by a
        factorization, so a split that is never factored does not build
        them."""
        m = self.n
        if self.core is not None or m < 3:
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

    @cached_property
    def scale(self):
        """(max|A|, max|E|) over all n states, each stored duplicate adding
        its magnitude, so that every entry of A + shift*E, however formed,
        is at most max|A| + |shift| max|E| up to a few roundings; NaN when
        an entry is."""
        out = []
        for X, dec in ((self.A, self.a_dec), (self.E, self.e_dec)):
            X = abs(X)   # a copy
            X.sum_duplicates()
            out.append(float(np.maximum(X.data.max(initial=0.0),
                                        np.abs(dec).max(initial=0.0))))
        return tuple(out)

    @property
    def frame(self):
        """The split's RowFrame: per block a solve has touched, the rows
        from its first to the end of the largest window used on it, in
        stored order; the full frame once they are all n rows, and always
        for a split without ``bands``.  Its edge is the last row of each block's
        rows that ends inside the block, the one row the tridiagonal pencil
        couples to a row past them; every windowed solve leaves it zero.
        The frame only grows, and is a new object each time it does."""
        if self.bands is not None and len(self._frame) != sum(
                end - lo for lo, end in self.ends.items()):
            rows, edge = [np.zeros(0, dtype=np.intp)], []
            for lo, end in sorted(self.ends.items()):
                rows.append(np.arange(lo, end))
                if end not in self.bands[2]:
                    edge.append(sum(map(len, rows)) - 1)
            rows = np.concatenate(rows)
            self._frame = RowFrame(self.n, None if len(rows) == self.n else rows,
                                   edge, self.bands[:2])
        return self._frame

    def _last_rows(self, rhs, frame):
        """Per band block the right-hand side (on ``frame``) touches, its
        first and end rows and the last row where the right-hand side is
        nonzero."""
        starts = self.bands[2]
        cuts = starts if frame.full else np.searchsorted(frame.rows, starts)
        c = rhs.shape[1]
        nz = rhs.ravel() != 0   # row-major, c entries per row
        out = []
        for b in range(len(starts) - 1):
            seg = nz[cuts[b] * c : cuts[b + 1] * c]
            if seg.any():
                last = cuts[b] + (len(seg) - 1 - int(np.argmax(seg[::-1]))) // c
                out.append((int(starts[b]), int(starts[b + 1]),
                            int(last if frame.full else frame.rows[last])))
        return out

    def open(self, rhs, frame):
        """The first windows of a solve of ``rhs`` (on ``frame``), which
        grow the split's ``ends``: on a touched block [lo, hi) the window is
        [lo, w), w the larger of the right-hand side's last nonzero row plus
        ``_WINDOW_MARGIN`` and the largest window the split has used there,
        up to hi.  Returns (lo, w, hi) per touched block."""
        spans = []
        for lo, hi, last in self._last_rows(rhs, frame):
            w = min(hi, max(last + 1 + _WINDOW_MARGIN, self.ends.get(lo, lo)))
            spans.append((lo, w, hi))
            self.ends[lo] = w
        return spans


# Bound of max|m_ij| from the split's maxima (``_PencilSplit.scale``) that
# rules out overflow in forming any entry; above it the entries are formed.
_SAFE_BOUND = np.finfo(float).max / 4
# Relative slack of that bound over the roundings of forming an entry.
_BOUND_SLACK = 1e-10


class _BandLU:
    """The gttrf factors of a tridiagonal pencil M = a + shift*e (a split's
    ``bands``), one segment per band block, from the block's first row.

    ``extend`` factors a block on the rows asked for plus one: under partial
    pivoting rows lo..w-1 of a tridiagonal LU depend only on rows lo..w of
    the pencil, so those rows of the factors are final, with the bits a
    whole-band gttrf gives them, and the last one factored is provisional,
    its pivot not yet compared with the next row's.  A demand past the
    final rows factors the block again from its first row.  A zero pivot in
    a final row raises; the provisional one is not yet a pivot.
    """

    def __init__(self, bands, shift, name):
        self._a, self._e, starts = bands
        self._shift, self._name = shift, name
        self.starts = [int(b) for b in starts]
        self.dtype = np.result_type(self._a.dtype, shift)
        self._gttrf, self._gttrs = spla.get_lapack_funcs(("gttrf", "gttrs"),
                                                         dtype=self.dtype)
        # block start -> segment [first row, end of its final rows,
        # dl, d, du, du2, ipiv]
        self._segs = {}

    def extend(self, lo, w):
        """Make the factors of the block from row lo final on rows lo:w."""
        seg = self._segs.get(lo)
        if seg is not None and seg[1] >= w:
            return
        hi = self.starts[bisect.bisect_right(self.starts, lo)]
        end = min(hi, max(w + 1, lo + 3))   # gttrf takes 3 rows or more
        M = self._a[:, lo:end] + self._shift * self._e[:, lo:end]
        *gt, info = self._gttrf(M[2, :-1], M[1], M[0, 1:],
                                overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        done = end if end == hi else end - 1
        if 0 < info <= done - lo:
            raise SingularShiftedMatrix(
                f"{self._name} is singular: zero pivot {lo + info} of the tridiagonal LU")
        self._segs[lo] = [lo, done, *gt]

    def solve(self, rhs, trans, lo, w):
        """One gttrs call on rows lo:w of the block from row lo, from the
        slices of its factors."""
        self.extend(lo, w)
        _, _, dl, d, du, du2, ipiv = self._segs[lo]
        k = w - lo
        return self._gttrs(dl[:k - 1], d[:k], du[:k - 1], du2[:k - 2], ipiv[:k],
                           rhs, trans=trans)[0]


class ShiftedFactorization:
    """Reusable LU factorization of (A + shift*E), real for a real shift.

    The pencil is split into its decoupled states (rows and columns of A
    and E with no off-diagonal entry) and its coupled core: the decoupled
    states keep their pivots a_ii + shift*e_ii, as an n-vector whose core
    slots repeat a decoupled pivot, and are solved by one division of the
    whole right-hand side whose core rows are then overwritten; the core
    alone is factored, with no LU at all when it is empty (a diagonal
    pencil, such as the check of a diagonal E), and SuperLU factors it; a
    pencil with no decoupled state is factored whole.  ``split`` passes the
    split of (A, E) when the caller already holds it (FactorizationCache);
    it is computed here otherwise.

    A tridiagonal pencil (the split's ``bands``) is factored by LAPACK
    gttrf per band block from the block's first row and solved by gttrs
    (``_BandLU``) on the rows its solution reaches (``_windows``), which
    form the split's row frame (``_PencilSplit.frame``); every other pencil
    has the full frame.  An n-row right-hand side is gathered onto the
    frame, once the frame has grown to its first windows, and the solution
    scattered back; with ``framed`` the solution stays on the frame, as the
    solve leaves it.  Given its split (a cache's LU) the LU factors each
    block on the rows the split's windows reach plus one, and again when a
    later window passes them; a one-off LU factors every block whole.

    A non-finite entry is reported at construction time, an exact zero
    pivot when the row is factored (SuperLU, or gttrf on the rows factored
    here), a roundoff pivot by a solve with max|m_ij| ||x_j||_1 >
    ||rhs_j||_1 / eps for a column j (a lower bound on cond_1 of M and M^T;
    max|m_ij| over both parts).  Both checks first read the bound
    max|A| + |shift| max|E| of the split's ``scale`` in place of max|m_ij|,
    and form the entries only when the bound cannot rule out overflow or
    the bound's growth check fires, so each reaches the outcome the exact
    max|m_ij| gives.  The factorization may serve any number of right-hand
    sides; a complex one is solved against a real LU as its real and
    imaginary parts.
    """

    def __init__(self, A, E, shift, split=None):
        one_off = split is None
        if one_off:
            split = _PencilSplit(_as_csc(A), _as_csc(E))
        self._split = split
        self.n = split.n
        self.shift = complex(shift)
        self._name = f"A + ({shift})*E"
        s = self._s = self.shift.real if self.shift.imag == 0 else self.shift
        self._d = split.a_dec + s * split.e_dec
        amax, emax = split.scale
        self._entry_max = (amax + abs(s) * emax) * (1 + _BOUND_SLACK)
        self._exact = not self._entry_max <= _SAFE_BOUND   # NaN too
        if self._exact:
            self._entry_max = self._exact_entry_max()
        if not self._d.all():
            raise SingularShiftedMatrix(
                f"{self._name} is singular: a decoupled state has a zero pivot")
        self._lu = self._band = None
        if split.bands is not None:
            self._band = _BandLU(split.bands, s, self._name)
            self._dtype = self._band.dtype
            starts = self._band.starts
            for lo, end in zip(starts, starts[1:]) if one_off else split.ends.items():
                self._band.extend(lo, end)
            return
        M = (split.A + s * split.E).tocsc()
        self._dtype = M.dtype
        if M.shape[0]:
            try:
                # one-column panels: on narrow supernodes wider ones cost more than they save
                self._lu = splu(M, panel_size=1)
            except RuntimeError as exc:  # a zero pivot: "Factor is exactly singular"
                raise SingularShiftedMatrix(f"{self._name} is singular: {exc}") from exc

    def _exact_entry_max(self):
        """max|m_ij| over every entry of A + shift*E, formed here; raises
        on a non-finite entry."""
        split, s = self._split, self._s
        vals = (split.bands[0] + s * split.bands[1] if split.bands is not None
                else (split.A + s * split.E).data)
        if not (np.all(np.isfinite(self._d)) and np.all(np.isfinite(vals))):
            raise SingularShiftedMatrix(f"{self._name} has non-finite entries")
        return max(np.abs(self._d).max(initial=0.0), np.abs(vals).max(initial=0.0))

    def _core_solve(self, rhs, trans, rows=None):
        """The core's solve; of a banded pencil, rows lo:w = ``rows`` alone,
        lo a band block's first row (``_BandLU.solve``)."""
        if np.iscomplexobj(rhs) and self._dtype.kind != "c":
            x = self._core_solve(np.hstack([rhs.real, rhs.imag]), trans, rows)
            return x[:, : rhs.shape[1]] + 1j * x[:, rhs.shape[1]:]
        rhs = np.asarray(rhs, dtype=self._dtype)
        if self._band is None:
            return self._lu.solve(rhs, trans=trans)
        return self._band.solve(rhs, trans, *rows)

    def _windows(self, rhs, trans):
        """Solve a banded pencil block by block, ``rhs`` on the split's
        frame; returns the solution on the frame as it grows here, and the
        solution and right-hand side of every window (natural rows).

        A block the right-hand side does not touch is skipped.  A touched
        one is solved on its first window (``_PencilSplit.open``), which
        doubles, up to the block's end, until the solution's last two rows
        are below ``tiny`` in every column; those two rows are then set to
        zero.  Padded with zeros, that solution solves the whole system up
        to a right-hand-side perturbation of about 3 max|m_ij| tiny: only the
        window's last rows and row w can leave a residual, made of those two
        rows times entries of the pencil."""
        split, c = self._split, rhs.shape[1]
        frame = split.frame

        def window(lo, w):   # rhs on rows lo:w; zero off the frame
            if frame.full:
                return rhs[lo:w]
            a, b = np.searchsorted(frame.rows, (lo, w))
            out = np.zeros((w - lo, c), dtype=rhs.dtype)
            out[frame.rows[a:b] - lo] = rhs[a:b]
            return out

        tiny = np.finfo(float).tiny
        solved = []
        for lo, w, hi in split.open(rhs, frame):
            while True:
                bw = window(lo, w)
                xw = self._core_solve(bw, trans, (lo, w))
                if w == hi or not (np.abs(xw[-2:]) >= tiny).any():
                    break
                w = min(hi, lo + 2 * (w - lo))
            if w < hi:
                xw[-2:] = 0   # the edge of the frame
            split.ends[lo] = w
            solved.append((lo, xw, bw))
        frame = split.frame
        # column-major, as gttrs returns it
        x = np.zeros((len(frame), c), dtype=np.result_type(rhs, self._dtype), order="F")
        for lo, xw, _ in solved:
            at = lo if frame.full else int(np.searchsorted(frame.rows, lo))
            x[at:at + len(xw)] = xw
        return x, [(xw, bw) for _, xw, bw in solved]

    def solve(self, rhs, trans="N", framed=False):
        """Solve (A + shift*E) X = rhs, or with trans='T' the plain
        transpose (A^T + shift*E^T) X = rhs.  A 1-D rhs is solved as one
        column and gives a 1-D result.  ``rhs`` has n rows or is on the
        split's frame; the solution has n rows, or with ``framed`` is on the
        frame as the solve leaves it.  A banded pencil is solved on the
        rows its solution reaches (``_windows``), and checked there."""
        rhs = np.asarray(rhs)
        vector = rhs.ndim == 1
        rhs = rhs[:, None] if vector else np.atleast_2d(rhs)
        split = self._split
        if rhs.shape[0] == self.n and not split.frame.full:
            split.open(rhs, RowFrame(self.n))   # the frame takes rhs's rows
            rhs = split.frame.gather(rhs)
        elif rhs.shape[0] != len(split.frame):
            raise DimensionMismatch(
                f"rhs has {rhs.shape[0]} rows, expected {self.n} or the "
                f"frame's {len(split.frame)}")
        if split.bands is not None:
            x, parts = self._windows(rhs, trans)
        elif split.core is None:
            x = self._core_solve(rhs, trans)
            parts = [(x, rhs)]
        else:
            x = rhs / self._d[:, None]
            if len(split.core):
                x[split.core] = self._core_solve(rhs[split.core], trans)
            parts = [(x, rhs)]
        if not all(np.all(np.isfinite(xp)) for xp, _ in parts):
            raise SingularShiftedMatrix(
                f"solve with shift {self.shift} produced non-finite values"
            )
        # column sums by product: fast in any order
        xsum = sum(np.ones(len(xp)) @ np.abs(xp) for xp, _ in parts)
        bsum = sum(np.ones(len(bp)) @ np.abs(bp) for _, bp in parts)
        eps = np.finfo(float).eps
        if np.any(self._entry_max * xsum * eps > bsum) and not self._exact:
            self._entry_max, self._exact = self._exact_entry_max(), True
        if np.any(self._entry_max * xsum * eps > bsum):
            raise SingularShiftedMatrix(
                f"A + ({self.shift})*E is numerically singular")
        x = x if framed else split.frame.scatter(x)
        return x[:, 0] if vector else x


class FactorizationCache:
    """LUs of A + shift*E keyed by exact complex shift value.

    The pencil is split into decoupled states and coupled core once, here,
    and every LU of the cache (and of its ``transposed()`` cache) shares
    that split, and so its row frame (``frame``); an LU of a banded pencil
    is factored on the frame's rows (``ShiftedFactorization``) and grows
    with it.  Holds the LU used last
    plus those of the shifts passed to ``declare_recurring``; the others are
    dropped when a new shift is asked for.  ``factor_count`` counts the LUs
    this cache made itself and ``solve_count`` the calls of its ``solve``.
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
    def frame(self):
        """The RowFrame of this cache's solves, shared with every cache of
        the split: the rows solves have reached on a banded pencil, all
        rows on any other."""
        return self._split.frame

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

    def solve(self, shift, rhs, framed=False):
        """Solve with the LU of ``shift`` (``ShiftedFactorization.solve``)."""
        self.solve_count += 1
        return self.get(shift).solve(rhs, trans=self._trans, framed=framed)


def shifted_solve(A, E, shift, rhs):
    """Solve (A + shift*E) X = rhs for a square sparse pencil."""
    return ShiftedFactorization(A, E, shift).solve(rhs)


def _check_separation(lam_f, lam_g, scale=1.0):
    """SpectraOverlap when lam_f and lam_g share a value within 1e-12 times
    ``scale`` times their spectral scale, the largest modulus or 1."""
    scale *= max(np.abs(lam_f).max(initial=0.0), np.abs(lam_g).max(initial=0.0), 1.0)
    gap = np.min(np.abs(lam_f[:, None] - lam_g[None, :]))
    if gap <= 1e-12 * scale:
        raise SpectraOverlap(f"spectra separated by {gap:.3e} <= 1e-12 * {scale:.3e}")


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
    """The Schur decomposition a = Z T Z^H of a square matrix a, with the
    eigenvalues read off T: real quasi-triangular for real input, triangular
    for complex input."""

    T: np.ndarray
    Z: np.ndarray
    eigvals: np.ndarray

    shape = property(lambda self: self.T.shape, doc="The shape of a.")

    def __len__(self):
        return len(self.T)

    def extended(self, coupling, block):
        """SchurForm of [[a, coupling], [0, b]] from ``block``, the SchurForm
        of b: Z = diag(Z_a, Z_b) keeps T quasi-triangular, so a block
        triangular matrix is factored one diagonal block at a time."""
        T = block_diag2(self.T, block.T)
        T[: len(self), len(self):] = self.Z.conj().T @ coupling @ block.Z
        return SchurForm(T, block_diag2(self.Z, block.Z),
                         np.concatenate([self.eigvals, block.eigvals]))

    def kron(self, n):
        """SchurForm of kron(a, I_n), factor by factor, so every eigenvalue
        repeats exactly n times on T's diagonal."""
        I = np.eye(n)
        return SchurForm(np.kron(self.T, I), np.kron(self.Z, I),
                         np.repeat(self.eigvals, n))

    def block(self, lo, hi):
        """SchurForm of a[lo:hi, lo:hi], Z block diagonal at lo and hi."""
        return SchurForm(self.T[lo:hi, lo:hi], self.Z[lo:hi, lo:hi], self.eigvals[lo:hi])

    def __neg__(self):
        return SchurForm(-self.T, self.Z, -self.eigvals)

    def adjoint(self):
        """SchurForm of a^H: T^H is upper triangular in reversed order."""
        return SchurForm(self.T.conj().T[::-1, ::-1], self.Z[:, ::-1],
                         self.eigvals.conj()[::-1])


def schur_form(a):
    """SchurForm of a dense square matrix (one LAPACK gees call): real
    quasi-triangular for a real a, triangular for a complex one."""
    a, = _small_operands(a)
    return SchurForm(*_schur(a))


def _trsyl(r, s, f, trana="N", isgn=1):
    """Solve op(r) Y + isgn Y s = f for Schur factors r, s."""
    trsyl, = spla.get_lapack_funcs(("trsyl",), (r, s, f))
    y, scale, info = trsyl(r, s, f, trana=trana, isgn=isgn)
    if info != 0:
        raise SpectraOverlap(f"trsyl info {info}: spectra too close")
    return y / scale


def _small_operands(*arrays):
    """The operands as 2-D arrays of one float or complex dtype, a SchurForm
    passed through with its T's dtype counted; EigFailure when an entry is
    not finite."""
    mats = [a.T if isinstance(a, SchurForm) else np.atleast_2d(np.asarray(a)) for a in arrays]
    dtype = np.result_type(*mats, np.float64)
    if not all(np.isfinite(a).all() for a in mats):
        raise EigFailure("small solve with non-finite coefficients")
    return [a if isinstance(a, SchurForm) else m.astype(dtype, copy=False)
            for a, m in zip(arrays, mats)]


def solve_small_sylvester(F, G, H):
    """Solve F X - X G + H = 0 for F (p x p), G (q x q), H (p x q); F and G
    each a dense matrix or its SchurForm.

    Bartels-Stewart: one Schur form of each side, made here for a matrix,
    and LAPACK trsyl.  Raises SpectraOverlap when F and G share an
    eigenvalue within 1e-12 of the spectral scale, read off the Schur
    diagonals.  Real data give a real X (a SchurForm counts as real).
    """
    real = not any(np.iscomplexobj(a) for a in (F, G, H) if not isinstance(a, SchurForm))
    F, G, H = _small_operands(F, G, H)
    if F.shape[0] != F.shape[1] or G.shape[0] != G.shape[1]:
        raise DimensionMismatch("F and G must be square")
    p, q = F.shape[0], G.shape[0]
    if H.shape != (p, q):
        raise DimensionMismatch(f"H has shape {H.shape}, expected {(p, q)}")
    if p == 0 or q == 0:
        return np.zeros((p, q), dtype=float if real else H.dtype)
    (tg, zg, lam_g), (tf, zf, lam_f) = (
        (a.T, a.Z, a.eigvals) if isinstance(a, SchurForm) else _schur(a) for a in (G, F))
    _check_separation(lam_f, lam_g)
    # F X - X G = -H with F = U R U^H, G = Z T Z^H: R Y - Y T = -U^H H Z
    y = _trsyl(tf, tg, zf.conj().T @ (-H @ zg), isgn=-1)
    X = zf @ y @ zg.conj().T
    X = X.real if real else X
    if not np.isfinite(X).all():
        raise SpectraOverlap("small Sylvester solution is not finite")
    return X


def _shifted(T, mu):
    """T^T + mu I of a triangular T, lower triangular and column-major."""
    return (T + mu * np.eye(len(T))).T


def solve_placed_sylvester(form, kp, q, H, U, G=None):
    """Solve S^T t_i + t_i s + U_i (G^T t_i) = H_i for real t_i, i = 1..r,
    with S the leading q x q block of ``form``'s matrix and s = S[kp:q, kp:q]:
    the r equations of one side that consume the same columns kp:q.

    ``form`` is the complex Schur form S = Z T Z^H of a real matrix, grown by
    ``extended`` so that Z is block diagonal with blocks ending at kp and q.
    H is r x q x (q - kp), the records' right-hand sides stacked; U is a list
    of r blocks U_i, each q x p or None (no correction); G is q x p; all real.
    Column j of Y_i = Z^T t_i Z_s, mu = T[kp+j, kp+j], solves
    (T^T + mu I + Z^T U_i G^T conj(Z)) y_ij = (Z^T H_i Z_s)_j - Y_i[:, :j] T[kp:kp+j, kp+j]
    by Sherman-Morrison-Woodbury on T^T + mu I, formed once per distinct mu
    (Golub & Van Loan, Matrix Computations, 4th ed., Sec. 2.1.4).  The
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
    Z, T = form.Z[:q, :q], form.T[:q, :q]
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
            base, caps = _shifted(T, mu), {}
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
    Q (r x n x n), F a dense matrix or its SchurForm; returns Hermitian X of
    Q's shape.

    One Schur form F = Z T Z^H: the separation check reads the eigenvalues
    off its diagonal, and one LAPACK trsyl call solves
    T^H [Y_1 ... Y_r] + [Y_1 ... Y_r] diag(T, ..., T) = -Z^H [Q_1 Z ... Q_r Z].
    The result is symmetrized to suppress roundoff drift; real data give a
    real X.
    """
    real = not np.iscomplexobj(Q) and (isinstance(F, SchurForm) or not np.iscomplexobj(F))
    F, Q = _small_operands(F, Q)
    n = F.shape[0]
    if F.shape != (n, n) or Q.shape[-2:] != (n, n) or Q.ndim > 3:
        raise DimensionMismatch("F must be square and Q one or a stack of its size")
    # operands are checked finite already
    asym = np.linalg.norm(Q - Q.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(asym > 1e-10 * np.linalg.norm(Q, axis=(-2, -1))):
        raise NonHermitianRHS("Q deviates from Hermitian beyond 1e-10 relative")
    if n == 0:
        return np.zeros(Q.shape, dtype=float if real else Q.dtype)
    t, z, lam = (F.T, F.Z, F.eigvals) if isinstance(F, SchurForm) else _schur(F)
    _check_separation(lam.conj(), -lam, 2.0)
    Qs = Q.reshape(-1, n, n)
    r = len(Qs)
    c = np.hstack(z.conj().T @ (-Qs @ z))
    y = _trsyl(t, np.kron(np.eye(r), t), c, trana="C").reshape(n, r, n).swapaxes(0, 1)
    X = (z @ y @ z.conj().T).reshape(Q.shape)
    X = X.real if real else X
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


def _check_lu(a, lu, info, what):
    """Check the LAPACK LU factor (lu, info) of the general square matrix
    a, named ``what`` in the error, as scipy.linalg.solve and inv do:
    EigFailure when a is singular, and their LinAlgWarning when the
    reciprocal condition of its 1-norm, from gecon on the same factor, is
    below eps."""
    gecon, = spla.get_lapack_funcs(("gecon",), (lu,))
    rcond = 0.0 if info else gecon(lu, np.abs(a).sum(axis=0).max(), norm="1")[0]
    if rcond == 0:
        raise EigFailure(f"singular {what} in small eig")
    if not rcond >= np.finfo(float).eps:
        warnings.warn(f"An ill-conditioned matrix detected: rcond = {rcond}.",
                      spla.LinAlgWarning, stacklevel=3)


def small_eig(F, E=None):
    """Eigendecomposition of F (or of the pencil (F, E)).

    Returns (eigenvalues, right_vectors, left_rows) with
    F @ right = right @ diag(w) (pencil form E^{-1} F when E is given) and
    left_rows = inv(right), so that residues are left_rows[l] @ B.  These
    are the LAPACK calls scipy.linalg.solve, eig and inv make for general
    matrices (gesv, geev with right vectors, getrf and getri), so with
    their bits and outcomes, without the wrappers that cost most of a call
    at a window's width.
    """
    F = np.atleast_2d(np.asarray(F))
    E = None if E is None else np.atleast_2d(np.asarray(E))
    if not all(np.isfinite(a).all() for a in (F, E) if a is not None):
        raise ValueError("array must not contain infs or NaNs")
    if E is not None:
        if E.shape != F.shape:
            raise DimensionMismatch("E must match F")
        gesv, = spla.get_lapack_funcs(("gesv",), (E, F))
        lu, _, F, info = gesv(E, F)
        _check_lu(E, lu, info, "E")
    n = len(F)
    geev, geev_lwork = spla.get_lapack_funcs(("geev", "geev_lwork"), (F,))
    lwork = int(geev_lwork(n, compute_vl=0, compute_vr=1)[0].real)
    *w, _, T, info = geev(F, lwork=lwork, compute_vl=0, compute_vr=1)
    if info:
        raise EigFailure(f"eigenvalues did not converge (geev info {info})")
    if len(w) == 2:   # real: a conjugate pair's vectors are re, im columns
        w, wi = w[0] + 1j * w[1], w[1]
        if wi.any():
            pair = np.flatnonzero(wi > 0)
            T = T.astype(complex)
            T.imag[:, pair] = T.real[:, pair + 1]
            T[:, pair + 1] = T[:, pair].conj()
    else:
        w, = w
    getrf, getri = spla.get_lapack_funcs(("getrf", "getri"), (T,))
    lu, piv, info = getrf(T)
    _check_lu(T, lu, info, "eigenvector matrix")
    Tl, _ = getri(lu, piv)
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
