"""Unified low-rank ADI engine.

One engine step performs exactly two large shifted solves (one per system
side) and feeds every selected matrix equation through small-scale
extraction transforms: each equation's basis is the shared Lyapunov-ADI
basis times a small block-triangular transform obtained from a small
Sylvester solve.  One kernel, ``_advance``, advances every Riccati family
and both Sylvester halves; they differ only in pole placement (feedback,
quadratic weight, companion shift block) and in the rule that grows the
middle matrix.  Each step advances a side's records together: one stacked
extraction over the columns they consume, with one small Lyapunov solve for
every weighted family's new middle block, on its one Schur form of S.  A
Sylvester half joins its side's families, or is a batch of its own when it
lags behind them.  A numerical failure of the batch's shared solves
degrades every record in it, one that belongs to a single record (its
capacitance, its trailing block, its middle block's condition) degrades
that record alone.

Each equation is one ``_Eq`` record: its pole placement (feedback fb,
quadratic weight qk, right-hand-side scaling rr and its inverse rri),
transform T, middle matrix M, their product Y = T M L_c^T, grown by the new
block's term alone, residual factor B rr - E X Y and that factor's Gram, so
a residual norm is computed at the factor's width.  A side's Lyapunov
record has T = None, the untransformed basis; its factor, the next solve's
right-hand side, is updated in place.  A step sets only every other
record's T, M and Y; its factor serves reads alone and is stale until one.
At init each enabled tag resolves once to one table entry (side, eq,
weight, right): ldl reads the Lyapunov record with a weight, sylv the V
half with the W half as right.  Every reader goes through the table, and
every residual is normalized by its own norm at X = 0.

One read rule serves every tag, and the caller decides when to read: a
read of a stale tag first has each side it reads form its stale records'
factors in one pass over its basis, and their Grams in one product; a read
of one record's factor on one side (``factor``) forms that record alone.  The
spectral-factor pair is coupled to the current Gramians, so a read of a
pair last rebuilt on a smaller basis first rebuilds it whole on the
current bases, from the two sides' X, S, L and G alone.

The two sides run one algorithm: the W side (observability, C2^T
right-hand side) is the V side's ADI on the dual realization
G2.dual() = (E2^T, A2^T, C2^T, B2^T, D2^T).

The Sylvester branch fires at every unit boundary the two bases share,
with the two sides' own (S, L) blocks of the new columns as the group's
companion blocks, so every shift pattern groups and the coupling X of the
Petrov-Galerkin product V X^-1 W^T is never formed.

Supported equations (17): the controllability/observability Gramian pair,
the indefinite-weighted pair, the minimum-phase pair, one two-sided
Sylvester equation, and the regulator/filter, bounded-gain, positive-real,
bounded-real and spectral-factor Riccati pairs.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import (
    EigFailure,
    EquationSkipped,
    ExtractionSingular,
    InfeasibleHard,
    NonHermitianRHS,
    ParseError,
    SpectraOverlap,
)
from .classic import LowRankSolution, ResidualFactor
from .linalg import (
    FactorizationCache,
    block_diag2,
    gram_norm2,
    schur_form,
    small_inverse,
    solve_placed_sylvester,
    solve_small_lyapunov,
    solve_small_sylvester,
    symmetric_inverse,
)
from .realify import ShiftUnit, lyap_sl, realified_columns
from .systems import EquationParams

logger = logging.getLogger("uadi")

# Numerical failures of the small solves: the tags they belong to are marked
# degraded and the run goes on.  Anything else (a DimensionMismatch from a
# small solve, say) is a bug and propagates.
_NUMERICAL_FAILURES = (SpectraOverlap, EigFailure, NonHermitianRHS,
                       ExtractionSingular, np.linalg.LinAlgError)

# Smallest reciprocal condition (1-norm estimate) of a symmetric small
# matrix whose inverse is taken as a middle matrix (the spectral-factor
# pair's Gramian X, a weighted family's new block); below it the equation
# is degraded.  The benchmark's pairs reach 0.12 at the least and the other
# tests 5e-6, while an ill-conditioned pair whose M is off by 4e-4 reads
# 3e-14; the weighted families' blocks reach a condition of 1e6.
_MIN_RCOND = 1e-10

# The bound for the Sylvester coupling d, whose inverse is sylv's new middle
# block: d is degraded only when singular to working precision, as inv(d)
# then has no correct digit.  An ill-conditioned d above it shows in the
# tracked residual, which is formed from the inverse taken: criterion 7's
# mismatched shifts take a d of 3.4e-13 at iteration 12, where the sylv
# residual jumps from 1.0 to 1.1e12, and the run reports sylv diverged.  The
# benchmark's couplings stay near 1.
_MIN_COUPLING_RCOND = np.finfo(float).eps

# Basis entries below it are flushed to zero (``_flush_subnormals``).
_FLUSH = np.sqrt(np.finfo(float).tiny)

# Growth of a ``_Columns`` buffer's capacity when it is full.
_GROWTH = 2

ALL_TAGS = (
    "lyap_p", "lyap_q", "ldl_p", "ldl_q", "mp_p", "mp_q", "sylv",
    "ricc_p", "ricc_q", "inf_p", "inf_q", "pr_p", "pr_q", "br_p", "br_q",
    "sf_p", "sf_q",
)

__all__ = [
    "ALL_TAGS",
    "EquationSelection",
    "UadiState",
    "uadi_init",
    "uadi_step",
    "extract_solution",
    "residual_norm",
]


@dataclass
class EquationSelection:
    """Requested equation tags plus the feasibility policy.

    In lenient mode infeasible requests are skipped with a recorded reason;
    strict mode raises InfeasibleHard instead.
    """

    tags: tuple = ALL_TAGS
    strict: bool = False

    @classmethod
    def parse(cls, spec, strict=False):
        if spec in ("all", None):
            return cls(ALL_TAGS, strict)
        if isinstance(spec, str):
            spec = [t.strip() for t in spec.split(",") if t.strip()]
        tags = tuple(spec)
        for t in tags:
            if t not in ALL_TAGS:
                raise ParseError(f"unknown equation tag {t!r}; known: {ALL_TAGS}")
        return cls(tags, strict)


def _is_spd(M):
    M = 0.5 * (M + M.T)
    try:
        spla.cholesky(M)
        return True
    except spla.LinAlgError:
        return False


def _sqrtm_spd(M):
    """Symmetric square root and inverse square root of an SPD matrix."""
    M = 0.5 * (M + M.T)
    w, U = spla.eigh(M)
    if np.min(w) <= 0:
        raise spla.LinAlgError("matrix is not positive definite")
    return (U * np.sqrt(w)) @ U.T, (U / np.sqrt(w)) @ U.T


def _scale(value):
    """Residual normalization: the initial residual norm, or 1 if it is 0."""
    return value if value > 0 else 1.0


def _pad_rows(M, extra):
    return np.vstack([M, np.zeros((extra, M.shape[1]))])


def _flush_subnormals(block):
    """Zero the entries of a new basis block below sqrt(tiny), about
    1.5e-154, in place.

    Solution vectors of long ladders decay below the normal range far from
    the port; products with subnormal operands run many times slower.  The
    windowed solves (``linalg``) already leave exact zeros past the rows a
    solution reaches; what is flushed here is the tail inside a window.
    The bound is sqrt(tiny), not tiny, because a product of two entries
    just above tiny is itself subnormal: every product the basis enters
    (X^T Y, the Grams, the oracles' projections) then runs at normal speed.
    The block is flushed before anything is derived from it, so the
    tracked residual stays exact for the stored basis.
    """
    block[np.abs(block) < _FLUSH] = 0.0
    return block


class _Columns:
    """A float array on a row frame that grows by appending column blocks
    in place.

    Column-major storage whose capacity grows by ``_GROWTH`` when full, so
    a new block costs O(rows m) copied bytes, amortized, instead of a copy
    of the whole basis.  ``view`` is the filled part, read-only.  ``lift``
    moves the array onto a grown frame, whose new rows read zero.  Filled
    columns are never written again, so a view taken earlier keeps its
    values when the buffer is reallocated.
    """

    def __init__(self, rows):
        self._buf = np.zeros((rows, 0), order="F")
        self.k = 0

    @property
    def view(self):
        v = self._buf[:, : self.k]
        v.flags.writeable = False
        return v

    def append(self, block):
        k = self.k + block.shape[1]
        if k > self._buf.shape[1]:
            buf = np.empty((len(self._buf), max(k, _GROWTH * self._buf.shape[1])), order="F")
            buf[:, : self.k] = self._buf[:, : self.k]
            self._buf = buf
        self._buf[:, self.k : k] = block
        self.k = k

    def lift(self, frame, old):
        self._buf = frame.lift(self._buf[:, : self.k], old)


def _family_configs(sys, gamma, name):
    """Pole placements of one side's Riccati-family equations keyed by
    family, and the reasons the infeasible families are skipped.

    A placement holds the feedback ``fb`` and quadratic weight ``qk`` of the
    projected equation and the scaling ``rr`` of its right-hand side B rr
    with its inverse ``rri``.  ``name`` names the system in the skip reasons.
    The symmetric matrices a placement inverts must be positive definite
    with a reciprocal condition of at least ``_MIN_RCOND``.
    """
    m, p, D = sys.m, sys.p, sys.D
    I = np.eye(m)
    cfg = {
        "ricc": dict(fb=None, qk=np.eye(p), rr=I, rri=I),
        "inf": dict(fb=None, qk=(1.0 - gamma ** -2) * np.eye(p), rr=I, rri=I),
    }
    skip = {}

    def spd_inverse(fam, what, M):
        """M's inverse, or None with ``fam``'s skip reason recorded."""
        inv, rcond = symmetric_inverse(M) if _is_spd(M) else (None, None)
        if rcond is None:
            skip[fam] = f"{what} of {name} is not symmetric positive definite"
        elif rcond < _MIN_RCOND:
            skip[fam] = f"{what} of {name} has reciprocal condition {rcond:.1e}"
        return None if fam in skip else inv

    if D.shape[0] != D.shape[1]:
        invertible, why = False, f"D of {name} is not square"
    else:
        sv = spla.svdvals(D)
        invertible = sv[-1] > 0 and sv[0] / sv[-1] <= 1e12
        why = f"D of {name} is singular or too ill-conditioned"
    if invertible:
        Di = spla.inv(D)
        cfg["mp"] = dict(fb=Di, qk=None, rr=Di, rri=D)
    else:
        skip["mp"] = skip["pr"] = why
    if not np.any(D):
        skip["br"] = f"D of {name} is zero"
    Dpi = None if "pr" in skip else spd_inverse("pr", "D + D^T", D + D.T)
    if Dpi is not None:
        sq, isq = _sqrtm_spd(D + D.T)
        cfg["pr"] = dict(fb=Dpi, qk=-Dpi, rr=isq, rri=sq)
    Dbi = None if "br" in skip else spd_inverse("br", "I - D D^T", np.eye(p) - D @ D.T)
    if Dbi is not None:
        sq, isq = _sqrtm_spd(I + D.T @ Dbi @ D)
        cfg["br"] = dict(fb=-(D.T @ Dbi), qk=-Dbi, rr=sq, rri=isq)
    DtDi = spd_inverse("sf", "D^T D", D.T @ D)
    if DtDi is not None:
        sq, isq = _sqrtm_spd(D.T @ D)
        cfg["sf"] = dict(fb=DtDi, qk=None, rr=isq, rri=sq)
    return cfg, skip


@dataclass
class _Eq:
    """One equation extracted from a side's basis X.

    Its pole placement: the feedback ``fb``, quadratic weight ``qk``,
    right-hand-side scaling ``rr`` and its inverse ``rri``, each None where
    the equation has none.  Its standing state: the transform T of the
    consumed basis prefix, the middle matrix M and their product
    Y = T M L_c^T.  L_c is the side's own L, except for a Sylvester half,
    which names the other side as its ``partner`` and whose M is the block
    diagonal of the step couplings' inverses (transposed on the W side).  An
    identity M is kept as None; T = None is the whole untransformed basis,
    the side's Lyapunov equation.  A record is seeded at X = 0 with an empty
    T, M and Y.  Its residual factor perp = B rr - E X Y, on the side's
    row frame, and the factor's Gram are None while stale, formed on read
    (``_Side.form``): read a record through the state, never as
    ``side.eqs[...]``.
    """

    T: np.ndarray
    M: np.ndarray
    Y: np.ndarray
    fb: np.ndarray = None
    qk: np.ndarray = None
    rr: np.ndarray = None
    rri: np.ndarray = None
    partner: "_Side" = None
    perp: np.ndarray = None
    gram: np.ndarray = None


def _advance(side, batch, q):
    """Advance the records of ``side`` in ``batch``, pairs (eq, new) that
    have consumed the same basis prefix kp, over the columns kp:q with one
    stacked extraction.  Returns one outcome per record: its (T, M, Y), or
    the numerical failure that degrades that record alone (a singular
    capacitance, trailing block or middle-matrix block); a failure the
    records share raises.  Mutates nothing.

    The equations differ only in the pole placement each record carries:
    its new transform columns t solve S^T t + t s + U (G^T t) = H against
    the new (s, l) block and the side's held Schur form of S; the placed
    matrix -S^T - U G^T, U = L^T fb + [T M T^T G qk; 0] with p columns, is
    not formed.  M grows block-diagonally by ``new`` when given (a Sylvester
    half's coupling inverse), by the inverse of a small Lyapunov solution on
    the form's block of s, one stacked solve for every record with a
    quadratic weight ``qk``, or stays the identity, kept as None; so Y grows
    to [Y; 0] + t new l_c^T, with l_c the new columns of L_c.
    """
    kp = len(batch[0][0].T)
    wid = q - kp
    l = side.L[:, kp:q]
    L, G = side.L[:, :q], side.G[:q]
    H, U = [], []
    for eq, _ in batch:
        u = None if eq.fb is None else L.T @ eq.fb
        if kp and eq.qk is not None:
            if u is None:
                u = np.zeros(G.shape)
            # T M T^T stays factored: O(k^2 m) instead of O(k^3)
            u[:kp] += eq.T @ (eq.M @ (eq.T.T @ G[:kp])) @ eq.qk
        rhs = L.T if eq.rr is None else L.T @ eq.rr
        H.append((rhs - _pad_rows(eq.Y, wid)) @ l)
        U.append(u)
    ts, failed = solve_placed_sylvester(side.schur, kp, q, np.stack(H), U, G)
    gesdd, = spla.get_lapack_funcs(("gesdd",), (ts,))
    for i in set(range(len(batch))) - set(failed):
        _, sv, _, info = gesdd(ts[i, kp:], compute_uv=0)
        if info or sv[-1] <= 1e-13 * max(sv[0], 1.0):
            failed[i] = ExtractionSingular("trailing transform block singular")
    news = [new for _, new in batch]
    weighted = [i for i, (eq, _) in enumerate(batch)
                if eq.qk is not None and i not in failed]
    if weighted:
        x = G.T @ ts[weighted]   # projected output maps of the new directions
        qk = np.stack([batch[i][0].qk for i in weighted])
        smalls = solve_small_lyapunov(-side.schur.block(kp, q),
                                      l.T @ l + x.swapaxes(1, 2) @ qk @ x)
        for i, small in zip(weighted, smalls):
            news[i], rcond = symmetric_inverse(small)
            if rcond < _MIN_RCOND:
                failed[i] = ExtractionSingular(
                    f"middle-matrix block has reciprocal condition {rcond:.1e}")
    out = []
    for i, ((eq, _), t, new) in enumerate(zip(batch, ts, news)):
        lc = (side if eq.partner is None else eq.partner).L[:, kp:q].T
        out.append(failed[i] if i in failed else (
            np.hstack([_pad_rows(eq.T, wid), t]),
            None if new is None else block_diag2(eq.M, new),
            _pad_rows(eq.Y, wid) + t @ (lc if new is None else new @ lc)))
    return out


class _Side:
    """One side of the engine: the low-rank ADI basis of one system and the
    equations extracted from it.

    The V side runs on G1.  The W side is the same algorithm on
    G2.dual() = (E2^T, A2^T, C2^T, B2^T, D2^T): its basis is W, its residual
    factor the n x p factor Cperp^T and its projected output map W^T B2.
    Its other records' factors are stale between reads (``_Eq``).

    Every n-row array of the side, its basis and its records' factors, is
    held on ``frame``: all n rows until the first solve, then its cache's
    row frame (``FactorizationCache.frame``), the rows its solves reach,
    which the two sides of one system share.  Products with the system run
    on ``fsys``, the system restricted to the frame once per growth; on
    the W side of one system (``primal``, G1 = G2) that is the dual of the
    system's restriction, whose A and E the frame holds for both sides.  On
    a pencil that is not banded the frame is all rows and ``fsys`` the
    system itself.  S is formed on read from L and the units consumed, its
    Schur form (``schur``) grown when a record first extracts.
    """

    def __init__(self, sys, cache, weight, suffix, primal=None):
        self.sys, self.cache, self.weight = sys, cache, weight
        self.primal = primal        # the realization whose dual sys is, if shared
        self.suffix = suffix        # tag suffix of this side's equations
        self.frame = self.sys.frame
        self._fsys = sys
        self._X = _Columns(sys.n)
        self.units = []      # the shift units consumed, one per basis block
        self._schur = None   # the form of S's leading units (``schur``)
        self.L = np.zeros((sys.m, 0))
        self.G = np.zeros((0, sys.p))   # X^T C^T
        B = np.array(sys.B, dtype=float)
        self.lyap = _Eq(None, None, None, perp=B, gram=B.T @ B)
        self.bounds = [0]               # basis-column counts at unit boundaries
        self.eqs, self.sylv = {}, None

    X = property(lambda self: self._X.view, doc="Shared basis on the frame, read-only.")
    k = property(lambda self: self._X.k)
    perp = property(lambda self: self.lyap.perp,
                    doc="Residual factor of the Lyapunov record, read-only.")

    @property
    def S(self):
        """S of A X + B L = E X S, formed on read: the units' blocks s on
        the diagonal, the strict block-upper part of L^T L above them."""
        S = np.triu(self.L.T @ self.L)
        for unit, lo, hi in zip(self.units, self.bounds, self.bounds[1:]):
            S[lo:hi, lo:hi] = lyap_sl(unit, self.sys.m)[0]
        return S

    @property
    def schur(self):
        """S's complex Schur form, Z block diagonal at the unit boundaries,
        caught up on demand with each unit since: its coupling L[:, :lo]^T l
        and the form of its 1 x 1 or 2 x 2 block times I_m, which keeps the
        input channels apart.  A side without records never builds it."""
        form, m = self._schur, self.sys.m
        i = 0 if form is None else self.bounds.index(len(form))
        for unit, lo, hi in zip(self.units[i:], self.bounds[i:], self.bounds[i + 1:]):
            block = schur_form(lyap_sl(unit, 1)[0], output="complex").kron(m)
            form = block if form is None else form.extended(
                self.L[:, :lo].T @ self.L[:, lo:hi], block)
        self._schur = form
        return form

    @property
    def fsys(self):
        """The side's system restricted to its frame, once per frame."""
        if len(self._fsys.frame) != len(self.frame):
            self._fsys = (self.sys.restricted(self.frame) if self.primal is None
                          else self.primal.restricted(self.frame).dual())
        return self._fsys

    def sync(self):
        """Lift the basis and every held factor onto the cache's frame, if
        it has grown: their new rows are zero."""
        frame = self.cache.frame
        if frame is self.frame:
            return
        old, self.frame = self.frame, frame
        self._X.lift(frame, old)
        for eq in (self.lyap, *self.eqs.values(), self.sylv):
            if eq is not None and eq.perp is not None:
                eq.perp = frame.lift(eq.perp, old)

    def expand(self, unit):
        """Extend the basis by one shift unit with one large shifted solve,
        then L, G and the Lyapunov residual factor."""
        if self.k:   # until its first solve a side is on all n rows
            self.sync()
        sol = self.cache.solve(unit.value, self.perp, framed=True)
        self.sync()
        block = _flush_subnormals(realified_columns(unit, sol))
        # the pencil couples the frame to other rows only through its edge
        # rows, where every solve is zero, so E X vanishes off the frame
        assert not block[self.frame.edge].any()
        _, l = lyap_sl(unit, self.sys.m)
        self.units.append(unit)
        self.L = np.hstack([self.L, l])
        self._X.append(block)
        fsys = self.fsys
        self.G = np.vstack([self.G, block.T @ fsys.C.T])
        perp = self.perp - (fsys.E @ block) @ l.T
        self.lyap.perp, self.lyap.gram = perp, perp.T @ perp
        self.bounds.append(self.k)

    def form(self, eqs=None):
        """Form the factor perp = B rr - E X Y and its Gram of every stale
        record among ``eqs``, by default all the side's records, in one
        pass, R = B [rr_1 ... rr_r] - E (X [Y_1 ... Y_r]), on the frame, and
        every Gram as a diagonal block of R^T R.  A Sylvester half's or
        degraded record's Y covers a basis prefix and is zero-padded to k
        rows here."""
        stale = [eq for eq in (eqs or (*self.eqs.values(), self.sylv))
                 if eq is not None and eq.perp is None]
        if not stale:
            return
        fsys = self.fsys
        # np.dot: for a one-column B, matmul's own loop is 6x slower than BLAS
        I = np.eye(self.sys.m)
        R = np.dot(fsys.B, np.hstack([I if eq.rr is None else eq.rr for eq in stale]))
        if self.k:   # before the first step X is empty and R is B rr
            Y = np.hstack([_pad_rows(eq.Y, self.k - len(eq.Y)) for eq in stale])
            R -= fsys.E @ (self.X @ Y)
        gram = R.T @ R
        start = 0
        for eq in stale:
            cols = slice(start, start + eq.Y.shape[1])
            eq.perp, eq.gram = R[:, cols], gram[cols, cols]
            start = cols.stop


def _sf_side(side, other):
    """Spectral-factor (T, M, Y) of one side, rebuilt on the whole basis
    from the two sides' current X, S, L and G."""
    eq, S = side.eqs["sf"], side.S
    # coupled output map: two thin products, no k x k_other cross Gram
    Cm = (other.X @ other.G).T @ side.X + side.sys.D.T @ side.G.T
    F = -S.T - side.L.T @ eq.fb @ Cm
    T = solve_small_sylvester(F, S, side.L.T @ eq.rr @ side.L)
    Cs = eq.rr @ Cm @ T
    X = solve_small_lyapunov(-S, side.L.T @ side.L - Cs.T @ Cs)
    M, rcond = symmetric_inverse(X)
    if rcond < _MIN_RCOND:
        raise ExtractionSingular(
            f"spectral-factor Gramian has reciprocal condition {rcond:.1e}")
    return T, M, T @ (M @ side.L.T)


class UadiState:
    """All accumulators of one unified-ADI run (single-owner, mutable)."""

    def __init__(self, sys1, sys2, params, selection):
        self.sys1, self.sys2 = sys1, sys2
        self.params = params if params is not None else EquationParams()
        S1, S2 = self.params.resolved(sys1, sys2)
        self.selection = selection
        self.iteration = 0
        self.skipped = {}
        self.degraded = {}
        self.single_system = sys1.same_realization(sys2)
        # One system (G1 = G2): the W side solves with the V side's LU of
        # A + beta E, transposed, so each shift is factored once.
        cache1 = FactorizationCache(sys1.A, sys1.E)
        dual = sys2.dual()
        cache2 = (cache1.transposed() if self.single_system else
                  FactorizationCache(dual.A, dual.E))
        self.v = _Side(sys1, cache1, S1, "_p")
        self.w = _Side(dual, cache2, S2, "_q", sys1 if self.single_system else None)
        self._build_table()

    # the n-row outputs: a side's array scattered from its frame, or the
    # array itself on the full frame
    V = property(lambda self: self.v.frame.scatter(self.v.X),
                 doc="Shared basis of the V side.")
    W = property(lambda self: self.w.frame.scatter(self.w.X),
                 doc="Shared basis of the W side.")
    Bperp = property(lambda self: self.v.frame.scatter(self.v.perp),
                     doc="Residual factor of the controllability Gramian of G1.")
    Cperp = property(lambda self: self.w.frame.scatter(self.w.perp).T,
                     doc="Residual factor (p x n) of the observability Gramian of G2.")
    alpha_units = property(lambda self: tuple(self.v.units), doc="V side's units, read-only.")
    beta_units = property(lambda self: tuple(self.w.units), doc="W side's units, read-only.")
    cache1 = property(lambda self: self.v.cache)
    cache2 = property(lambda self: self.w.cache)
    large_solve_count = property(
        lambda self: self.v.cache.solve_count + self.w.cache.solve_count,
        doc="Large shifted solves made by the two sides' caches.")

    def declare_recurring(self, alphas, betas):
        """Shifts the caller will use again: their LUs stay cached."""
        self.v.cache.declare_recurring(alphas)
        self.w.cache.declare_recurring(betas)

    # -- the equation table -------------------------------------------------

    def _skip(self, tag, reason):
        if tag in self.selection.tags:
            if self.selection.strict:
                raise InfeasibleHard(f"{tag}: {reason}")
            self.skipped[tag] = reason
            logger.info("skipping %s: %s", tag, reason)

    def _build_table(self):
        """Resolve every requested tag once.  A feasible equation gets its
        record, seeded at X = 0 with its pole placement; an infeasible one
        is skipped with its reason.  Then map each enabled tag to its entry
        (side, eq, weight, right), and fix each tag's normalization, its
        residual norm at X = 0."""
        v, w, prm = self.v, self.w, self.params
        want = set(self.selection.tags) | {"lyap_p", "lyap_q"}
        sylv_ok = self.sys1.m == self.sys2.p
        if not sylv_ok:
            self._skip("sylv", f"m1={self.sys1.m} != p2={self.sys2.p}")
        fams = [_family_configs(v.sys, prm.gamma1, "G1"),
                _family_configs(w.sys, prm.gamma2, "G2.dual()")]
        sf_why = ("G1 != G2" if not self.single_system else
                  fams[0][1].get("sf") or fams[1][1].get("sf"))
        # the spectral-factor pair is rebuilt together
        pair = {"sf"} if want & {"sf_p", "sf_q"} and not sf_why else set()
        table = {}
        for side, (cfg, skip) in zip((v, w), fams):
            sfx = side.suffix
            if sf_why:
                cfg.pop("sf", None)
                skip["sf"] = sf_why
            for fam, why in skip.items():
                self._skip(fam + sfx, why)
            empty = (np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, side.sys.m)))
            side.eqs = {f: _Eq(*empty, **c)
                        for f, c in cfg.items() if f + sfx in want or f in pair}
            if "sylv" in want and sylv_ok:
                side.sylv = _Eq(*empty, partner=w if side is v else v)
            table["lyap" + sfx] = (side, side.lyap, None, None)
            table["ldl" + sfx] = (side, side.lyap, side.weight, None)
            for f, eq in side.eqs.items():
                table[f + sfx] = (side, eq, None, None)
        if v.sylv is not None:
            table["sylv"] = (v, v.sylv, None, w.sylv)
        self._pair = ("sf_p", "sf_q") if pair else ()
        if prm.gamma1 == 1.0 or prm.gamma2 == 1.0:
            logger.info("gamma = 1: bounded-gain equations reduce to the "
                        "plain Lyapunov equations")
        if prm.gamma1 < 1.0 or prm.gamma2 < 1.0:
            logger.warning("gamma < 1 flips the sign of the quadratic term; "
                           "the bounded-gain equations become Lyapunov-like")
        self.enabled = want & table.keys()
        self.table = {tag: table[tag] for tag in self.enabled}
        self.const = {tag: _scale(self._norm(tag)) for tag in self.enabled}

    # -- stepping -----------------------------------------------------------

    def _step_outcomes(self):
        """Outcomes (tag, eq, outcome) of the step's small solves.
        Each side advances its records not yet degraded in one ``_advance``
        per column range consumed: the families consume the new block, the
        Sylvester half the columns up to the largest unit boundary the two
        bases share, if that lies past its prefix.  Its coupling d, solving
        Sw^T d + d Sv = Lw^T Lv on the held forms, is inverted once: the V
        half's new middle block is inv(d), the W half's its transpose; a d
        whose reciprocal condition is below ``_MIN_COUPLING_RCOND`` degrades
        ``sylv``.  A batch's shared failure is each record's."""
        v, w = self.v, self.w
        out, live = [], [(side, side.k, f + side.suffix, eq, None) for side in (v, w)
                         for f, eq in side.eqs.items()
                         if f != "sf" and f + side.suffix not in self.degraded]
        if v.sylv is not None and "sylv" not in self.degraded:
            q, kp = max(set(v.bounds) & set(w.bounds)), len(v.sylv.T)
            if q > kp:
                try:
                    d, rcond = small_inverse(solve_small_sylvester(
                        -w.schur.block(kp, q).adjoint(), v.schur.block(kp, q),
                        w.L[:, kp:q].T @ v.L[:, kp:q]))
                    if rcond < _MIN_COUPLING_RCOND:
                        raise ExtractionSingular(
                            f"Sylvester coupling has reciprocal condition {rcond:.1e}")
                    live += [(v, q, "sylv", v.sylv, d), (w, q, "sylv", w.sylv, d.T)]
                except _NUMERICAL_FAILURES as exc:
                    out.append(("sylv", None, exc))
        batches = {}    # (side, kp, q) -> [(tag, eq, new)]
        for side, q, tag, eq, new in live:
            batches.setdefault((side, len(eq.T), q), []).append((tag, eq, new))
        for (side, _, q), batch in batches.items():
            try:
                news = _advance(side, [(eq, new) for _, eq, new in batch], q)
            except _NUMERICAL_FAILURES as exc:
                news = [exc] * len(batch)
            out += [(tag, eq, n) for (tag, eq, _), n in zip(batch, news)]
        return out

    def _pair_outcomes(self):
        """Outcomes of the spectral-factor pair, rebuilt whole on the current
        bases; a failure is both halves' outcome.  Only a read of a stale
        pair runs it (``entry``)."""
        v, w = self.v, self.w
        try:
            return [("sf_p", v.eqs["sf"], _sf_side(v, w)),
                    ("sf_q", w.eqs["sf"], _sf_side(w, v))]
        except _NUMERICAL_FAILURES as exc:
            return [(tag, None, exc) for tag in self._pair]

    def step(self, alpha, beta):
        """Consume one shift unit per side (a complex shift stands for its
        conjugate pair) with exactly two large shifted solves."""
        au = alpha if isinstance(alpha, ShiftUnit) else ShiftUnit(alpha)
        bu = beta if isinstance(beta, ShiftUnit) else ShiftUnit(beta)
        for side, unit in ((self.v, au), (self.w, bu)):
            side.expand(unit)
        self.v.sync()   # the W side's solve may have grown their shared frame
        self._apply(self._step_outcomes())
        self.iteration += 1
        return self

    def _apply(self, outcomes):
        """Degrade each tag with a numerical failure among its outcomes
        (tag, eq, outcome), then set the others' T, M and Y, leaving their
        factors stale.  A degraded tag keeps the T, M, Y of its last good
        update, and a tag with a failed half sets neither."""
        failed = {tag: new for tag, _, new in outcomes if isinstance(new, Exception)}
        for tag, exc in failed.items():
            self.degraded[tag] = str(exc)
            logger.warning("%s degraded: %s", tag, exc)
        for tag, eq, new in outcomes:
            if tag not in failed:
                (eq.T, eq.M, eq.Y), eq.perp, eq.gram = new, None, None

    def _rebuild_due(self, tag):
        """Whether a read of ``tag`` first rebuilds its spectral-factor pair."""
        side, eq, _, _ = self.table[tag]
        return tag in self._pair and tag not in self.degraded and len(eq.T) < side.k

    def stale(self, tag):
        """Whether a read of ``tag``, if enabled, brings anything up to date
        first: a due rebuild, or a factor of a record it reads."""
        return tag in self.table and (self._rebuild_due(tag) or any(
            eq is not None and eq.perp is None for eq in self.table[tag][1::2]))

    # -- outputs ------------------------------------------------------------

    def entry(self, tag, started=False, form=True):
        """The table entry (side, eq, weight, right) of an enabled tag, read:
        a stale tag first has its due pair rebuild run, then, with ``form``,
        each side it reads (both for ``sylv`` and the pair) forms its stale
        factors.  With ``started``, the engine must have taken a step."""
        if tag not in self.table:
            raise EquationSkipped(
                f"{tag} not enabled: {self.skipped.get(tag, 'not selected')}"
                if tag in ALL_TAGS else f"unknown equation tag {tag!r}")
        if started and self.v.k == 0 and self.w.k == 0:
            raise EquationSkipped("no completed iterations")
        side, _, _, right = self.table[tag]
        if self._rebuild_due(tag):
            self._apply(self._pair_outcomes())
        if form and self.stale(tag):
            for s in (self.v, self.w) if right or tag in self._pair else (side,):
                s.form()
        return self.table[tag]

    def factor(self, tag, side):
        """The residual factor of ``tag``'s record on ``side`` (for ``sylv``
        either half), on the side's frame, read alone: a stale one is
        formed by itself, no other record of the side is."""
        own, eq, _, right = self.entry(tag, form=False)
        eq = eq if side is own else right
        side.form((eq,))
        return eq.perp

    def extract(self, tag):
        """Low-rank factors of ``tag``'s solution, from T, M and the bases
        alone: no residual factor is formed."""
        side, eq, weight, right = self.entry(tag, started=True, form=False)
        if eq.T is None:
            middle = (None if weight is None else
                      np.kron(np.eye(side.k // side.sys.m), weight))
            return LowRankSolution(side.frame.scatter(side.X.copy()), middle, tag=tag)
        # a degraded equation's transform covers a prefix of the basis
        q = eq.T.shape[0]
        middle = np.eye(eq.T.shape[1]) if eq.M is None else eq.M.copy()
        other = (None if right is None else   # sylv's W half
                 self.w.frame.scatter(self.w.X[:, :q] @ right.T))
        return LowRankSolution(side.frame.scatter(side.X[:, :q] @ eq.T), middle,
                               other, tag=tag)

    def rank(self, tag):
        """Rank of extract(tag), read off the stored transforms without
        forming the n-row factors."""
        side, eq, _, _ = self.entry(tag, started=True, form=False)
        return side.k if eq.T is None else eq.T.shape[1]

    def residual_factor(self, tag):
        side, eq, weight, right = self.entry(tag)
        perp = ResidualFactor(side.frame.scatter(eq.perp.copy()),
                              None if weight is None else weight.copy())
        if right is not None:   # sylv's W half
            return perp, ResidualFactor(self.w.frame.scatter(right.perp).T.copy())
        return perp

    def _norm(self, tag):
        """Unnormalized residual norm of an enabled tag, from the Grams its
        records hold once read."""
        _, eq, weight, right = self.entry(tag)
        return gram_norm2(eq.gram, weight, right and right.gram, grams=True)

    def residual_norm(self, tag):
        return self._norm(tag) / self.const[tag]


def uadi_init(sys1, sys2, params=None, select=None):
    """Initialize the unified engine; infeasible selections are downgraded
    to skipped-with-reason unless the selection is strict."""
    if select is None:
        select = EquationSelection()
    elif not isinstance(select, EquationSelection):
        select = EquationSelection.parse(select)
    return UadiState(sys1, sys2, params, select)


def uadi_step(state, alpha, beta):
    """Advance the engine by one (alpha, beta) shift-unit pair."""
    return state.step(alpha, beta)


def extract_solution(state, tag):
    """Low-rank factors of one equation's current approximation."""
    return state.extract(tag)


def residual_norm(state, tag):
    """Normalized spectral norm of one equation's tracked residual."""
    return state.residual_norm(tag)
