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
every weighted family's new middle block.  A Sylvester half joins its
side's families, or is a batch of its own when it lags behind them.  A
numerical failure of the batch's shared solves degrades every record in
it, one that belongs to a single record (its capacitance, its trailing
block, its middle block's condition) degrades that record alone.

Each equation is one ``_Eq`` record: its pole placement (feedback fb,
quadratic weight qk, right-hand-side scaling rr and its inverse rri),
transform T, middle matrix M, their product Y = T M L_c^T, grown by the new
block's term alone, residual factor B rr - E X Y and that factor's Gram, so
a residual norm is computed at the factor's width.  A side's Lyapunov
record has T = None, the untransformed basis; its factor, the next solve's
right-hand side, is updated in place.  Once the step's small solves have
all run, each side forms every other record's factor in one pass over its
basis, and their Grams in one product.  At init each enabled tag resolves
once to one table entry (side, eq, weight, right): ldl reads the Lyapunov
record with a weight, sylv the V half with the W half as right.  Every
reader goes through the table, and every residual is normalized by its own
norm at X = 0.

The spectral-factor pair is coupled to the current Gramians, so each
rebuild solves it whole on the current bases, from the two sides' X, S, L
and G alone.  Nothing inside the iteration reads it and a step never
rebuilds it: a read of a stale pair rebuilds it first, and the caller
decides when to read.

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
from dataclasses import dataclass, field

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
    """Zero the subnormal entries of a new basis block in place.

    Solution vectors of long ladders decay below the normal range far from
    the port; products with subnormal operands run many times slower.  The
    windowed solves (``linalg``) already leave exact zeros past the rows a
    solution reaches; what is flushed here is the subnormal tail inside a
    window.  The block is flushed before anything is derived from it, so
    the tracked residual stays exact for the stored basis.
    """
    block[np.abs(block) < np.finfo(block.dtype).tiny] = 0.0
    return block


class _Columns:
    """An n-row float array that grows by appending column blocks in place.

    Column-major storage whose capacity grows by ``_GROWTH`` when full, so
    a new block costs O(n m) copied bytes, amortized, instead of a copy of
    the whole basis.  The buffer is zero-filled, and ``append`` writes, and
    a reallocation copies, only the rows of ``rows`` (all by default):
    slices that cover every nonzero row of every block appended so far.
    Neither the unused capacity nor the rows past them are ever written.
    ``view`` is the filled part, read-only.  Filled columns are
    never written again, so a view taken earlier keeps its values when the
    buffer is reallocated.
    """

    def __init__(self, n):
        self._buf = np.zeros((n, 0), order="F")
        self.k = 0

    @property
    def view(self):
        v = self._buf[:, : self.k]
        v.flags.writeable = False
        return v

    def append(self, block, rows=(slice(None),)):
        k = self.k + block.shape[1]
        if k > self._buf.shape[1]:
            cap = max(k, _GROWTH * self._buf.shape[1])
            buf = np.zeros((self._buf.shape[0], cap), order="F")
            for r in rows:
                buf[r, : self.k] = self._buf[r, : self.k]
            self._buf = buf
        for r in rows:
            self._buf[r, self.k : k] = block[r]
        self.k = k


def _family_configs(sys, gamma, name):
    """Pole placements of one side's Riccati-family equations keyed by
    family, and the reasons the infeasible families are skipped.

    A placement holds the feedback ``fb`` and quadratic weight ``qk`` of the
    projected equation and the scaling ``rr`` of its right-hand side B rr
    with its inverse ``rri``.  ``name`` names the system in the skip reasons.
    """
    m, p, D = sys.m, sys.p, sys.D
    I = np.eye(m)
    cfg = {
        "ricc": dict(fb=None, qk=np.eye(p), rr=I, rri=I),
        "inf": dict(fb=None, qk=(1.0 - gamma ** -2) * np.eye(p), rr=I, rri=I),
    }
    skip = {}
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
        skip["mp"] = why
    if invertible and _is_spd(D + D.T):
        Dp = D + D.T
        Dpi = spla.inv(Dp)
        sq, isq = _sqrtm_spd(Dp)
        cfg["pr"] = dict(fb=Dpi, qk=-Dpi, rr=isq, rri=sq)
    else:
        skip["pr"] = f"D + D^T of {name} is not symmetric positive definite"
    if np.any(D) and _is_spd(np.eye(p) - D @ D.T):
        Dbi = spla.inv(np.eye(p) - D @ D.T)
        sq, isq = _sqrtm_spd(I + D.T @ Dbi @ D)
        cfg["br"] = dict(fb=-(D.T @ Dbi), qk=-Dbi, rr=sq, rri=isq)
    else:
        skip["br"] = (f"D of {name} is zero" if not np.any(D)
                      else f"I - D D^T of {name} is not positive definite")
    if _is_spd(D.T @ D):
        DtD = D.T @ D
        sq, isq = _sqrtm_spd(DtD)
        cfg["sf"] = dict(fb=spla.inv(DtD), qk=None, rr=isq, rri=sq)
    else:
        skip["sf"] = f"D^T D of {name} is not positive definite"
    return cfg, skip


@dataclass
class _Eq:
    """One equation extracted from a side's basis X.

    Its pole placement: the feedback ``fb``, quadratic weight ``qk``,
    right-hand-side scaling ``rr`` and its inverse ``rri``, each None where
    the equation has none.  Its standing state: the transform T of the
    consumed basis prefix, the middle matrix M, their product
    Y = T M L_c^T, the residual factor perp = B rr - E X Y on that prefix and
    its Gram perp^T perp, formed from the seed perp at construction.  L_c is
    the side's own L, except for a Sylvester half, which names the other
    side as its ``partner`` and whose M is the block diagonal of the step
    couplings' inverses (transposed on the W side).  An identity M is kept
    as None; T = None is the whole untransformed basis, the side's Lyapunov
    equation.  A record is seeded at X = 0 with an empty T, M and Y.
    The spectral-factor record is stale between its pair's rebuilds: read
    it through the state (``UadiState.stale``), never as ``side.eqs["sf"]``.
    """

    T: np.ndarray
    M: np.ndarray
    perp: np.ndarray
    fb: np.ndarray = None
    qk: np.ndarray = None
    rr: np.ndarray = None
    rri: np.ndarray = None
    partner: "_Side" = None
    Y: np.ndarray = field(init=False)
    gram: np.ndarray = field(init=False)

    def __post_init__(self):
        self.Y = np.zeros((0, self.perp.shape[1]))
        self.gram = self.perp.T @ self.perp


def _channel_order(wid, m):
    """The order of wid basis columns from a unit boundary that lists each
    input channel's columns together (column j is channel j mod m).  In it
    a unit's block s = s_1 (x) I_m reads I_m (x) s_1, and S over several
    units is block diagonal by channel too, so a Schur form of the block
    does not mix the channels and keeps the zeros between them."""
    return np.arange(wid).reshape(-1, m).T.ravel()


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
    half's coupling inverse), by the inverse of a small Lyapunov solution,
    one stacked solve for every record with a quadratic weight ``qk``, or
    stays the identity, kept as None; so Y grows to [Y; 0] + t new l_c^T,
    with l_c the new columns of L_c.
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
        p = _channel_order(wid, side.sys.m)
        x = G.T @ ts[weighted][:, :, p]   # projected output maps of the new directions
        qk, lp = np.stack([batch[i][0].qk for i in weighted]), l[:, p]
        smalls = solve_small_lyapunov(-side.S[kp:q, kp:q][p[:, None], p],
                                      lp.T @ lp + x.swapaxes(1, 2) @ qk @ x)
        back = np.argsort(p)
        for i, small in zip(weighted, smalls[:, back[:, None], back]):
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
    Its ``eqs["sf"]`` record is stale between its pair's rebuilds (``_Eq``).
    """

    def __init__(self, sys, cache, weight, suffix):
        self.sys, self.cache, self.weight = sys, cache, weight
        self.suffix = suffix        # tag suffix of this side's equations
        self._X = _Columns(sys.n)
        # S with its complex Schur form, grown one diagonal block per unit
        self.schur = schur_form(np.zeros((0, 0)))
        self.L = np.zeros((sys.m, 0))
        self.G = np.zeros((0, sys.p))   # X^T C^T
        self.lyap = _Eq(None, None, np.array(sys.B, dtype=float))
        self.bounds = [0]               # basis-column counts at unit boundaries
        self.eqs, self.sylv = {}, None

    X = property(lambda self: self._X.view, doc="Shared basis, read-only.")
    S = property(lambda self: self.schur.a)
    k = property(lambda self: self._X.k)
    perp = property(lambda self: self.lyap.perp,
                    doc="Residual factor of the Lyapunov record, read-only.")

    def expand(self, unit):
        """Extend the basis by one shift unit with one large shifted solve,
        then S, L, G and the Lyapunov residual factor."""
        sol = self.cache.solve(unit.value, self.perp)
        block = _flush_subnormals(realified_columns(unit, sol))
        _, l = lyap_sl(unit, self.sys.m)
        # s = s_1 (x) I_m: its form repeats each eigenvalue exactly m times
        s1 = schur_form(lyap_sl(unit, 1)[0], output="complex")
        self.schur = self.schur.extended(self.L.T @ l, s1.kron(self.sys.m))
        self.L = np.hstack([self.L, l])
        self._X.append(block, self.cache.reach)
        self.G = np.vstack([self.G, block.T @ self.sys.C.T])
        perp = self.perp - (self.sys.E @ block) @ l.T
        self.lyap.perp, self.lyap.gram = perp, perp.T @ perp
        self.bounds.append(self.k)

    def commit(self, updates):
        """Set each updated record's T, M, Y, perp = B rr - E X Y and Gram
        from its update (eq, (T, M, Y)), forming every factor in one pass,
        R = B [rr_1 ... rr_r] - E (X [Y_1 ... Y_r]), and every Gram as a
        diagonal block of R^T R.  A Sylvester half's Y covers a basis prefix
        and is zero-padded to k rows here.  X Y is formed on the cache's
        ``reach`` slices alone: X is zero past them."""
        if not updates:
            return
        B = self.sys.B
        R = np.hstack([B if eq.rr is None else B @ eq.rr for eq, _ in updates])
        Y = np.hstack([_pad_rows(y, self.k - len(y)) for _, (_, _, y) in updates])
        XY = np.zeros(R.shape)
        for r in self.cache.reach:
            np.matmul(self.X[r], Y, out=XY[r])
        R -= self.sys.E @ XY
        gram = R.T @ R
        start = 0
        for eq, (T, M, y) in updates:
            cols = slice(start, start + y.shape[1])
            eq.T, eq.M, eq.Y, eq.perp, eq.gram = T, M, y, R[:, cols], gram[cols, cols]
            start = cols.stop


def _sf_side(side, other):
    """Spectral-factor (T, M, Y) of one side, rebuilt on the whole basis
    from the two sides' current X, S, L and G."""
    eq = side.eqs["sf"]
    # coupled output map: two thin products, no k x k_other cross Gram
    Cm = (other.X @ other.G).T @ side.X + side.sys.D.T @ side.G.T
    F = -side.S.T - side.L.T @ eq.fb @ Cm
    T = solve_small_sylvester(F, side.S, side.L.T @ eq.rr @ side.L)
    Cs = eq.rr @ Cm @ T
    X = solve_small_lyapunov(-side.S, side.L.T @ side.L - Cs.T @ Cs)
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
        self.alpha_units, self.beta_units = [], []
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
        self.w = _Side(dual, cache2, S2, "_q")
        self._build_table()

    V = property(lambda self: self.v.X, doc="Shared basis of the V side.")
    W = property(lambda self: self.w.X, doc="Shared basis of the W side.")
    Bperp = property(lambda self: self.v.perp,
                     doc="Residual factor of the controllability Gramian of G1.")
    Cperp = property(lambda self: self.w.perp.T,
                     doc="Residual factor (p x n) of the observability Gramian of G2.")
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
            side.eqs = {f: _Eq(np.zeros((0, 0)), np.zeros((0, 0)),
                               side.sys.B @ c["rr"], **c)
                        for f, c in cfg.items() if f + sfx in want or f in pair}
            if "sylv" in want and sylv_ok:
                side.sylv = _Eq(np.zeros((0, 0)), np.zeros((0, 0)), side.perp.copy(),
                                partner=w if side is v else v)
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
        """Outcomes (tag, side, eq, outcome) of the step's small solves.
        Each side advances its records not yet degraded in one ``_advance``
        per column range consumed: the families consume the new block, the
        Sylvester half the columns up to the largest unit boundary the two
        bases share, if that lies past its prefix.  Its coupling d is solved
        and inverted once, in each side's ``_channel_order``: the V half's
        new middle block is inv(d), the W half's its transpose; a d whose
        reciprocal condition is below ``_MIN_COUPLING_RCOND`` degrades
        ``sylv``.  A batch's shared failure is each record's."""
        v, w = self.v, self.w
        out, live = [], [(side, side.k, f + side.suffix, eq, None) for side in (v, w)
                         for f, eq in side.eqs.items()
                         if f != "sf" and f + side.suffix not in self.degraded]
        if v.sylv is not None and "sylv" not in self.degraded:
            q, kp = max(set(v.bounds) & set(w.bounds)), len(v.sylv.T)
            if q > kp:
                pv = kp + _channel_order(q - kp, v.sys.m)
                pw = kp + _channel_order(q - kp, w.sys.m)
                try:
                    d, rcond = small_inverse(solve_small_sylvester(
                        -w.S[pw[:, None], pw].T, v.S[pv[:, None], pv],
                        w.L[:, pw].T @ v.L[:, pv]))
                    if rcond < _MIN_COUPLING_RCOND:
                        raise ExtractionSingular(
                            f"Sylvester coupling has reciprocal condition {rcond:.1e}")
                    d = d[np.argsort(pv)[:, None], np.argsort(pw)]
                    live += [(v, q, "sylv", v.sylv, d), (w, q, "sylv", w.sylv, d.T)]
                except _NUMERICAL_FAILURES as exc:
                    out.append(("sylv", None, None, exc))
        batches = {}    # (side, kp, q) -> [(tag, eq, new)]
        for side, q, tag, eq, new in live:
            batches.setdefault((side, len(eq.T), q), []).append((tag, eq, new))
        for (side, _, q), batch in batches.items():
            try:
                news = _advance(side, [(eq, new) for _, eq, new in batch], q)
            except _NUMERICAL_FAILURES as exc:
                news = [exc] * len(batch)
            out += [(tag, side, eq, n) for (tag, eq, _), n in zip(batch, news)]
        return out

    def _pair_outcomes(self):
        """Outcomes of the spectral-factor pair, rebuilt whole on the current
        bases; a failure is both halves' outcome.  Only a read of a stale
        pair runs it (``_entry``)."""
        v, w = self.v, self.w
        try:
            return [("sf_p", v, v.eqs["sf"], _sf_side(v, w)),
                    ("sf_q", w, w.eqs["sf"], _sf_side(w, v))]
        except _NUMERICAL_FAILURES as exc:
            return [(tag, None, None, exc) for tag in self._pair]

    def step(self, alpha, beta):
        """Consume one shift unit per side (a complex shift stands for its
        conjugate pair) with exactly two large shifted solves."""
        au = alpha if isinstance(alpha, ShiftUnit) else ShiftUnit(alpha)
        bu = beta if isinstance(beta, ShiftUnit) else ShiftUnit(beta)
        for side, unit in ((self.v, au), (self.w, bu)):
            side.expand(unit)
        self.alpha_units.append(au)
        self.beta_units.append(bu)
        self._apply(self._step_outcomes())
        self.iteration += 1
        return self

    def _apply(self, outcomes):
        """Degrade each tag with a numerical failure among its outcomes
        (tag, side, eq, outcome), then commit the others' new residual
        factors, once per side.  A degraded tag keeps the T, M, Y, perp and
        Gram of its last good update, and a tag with a failed half commits
        neither."""
        failed = {tag: new for tag, _, _, new in outcomes if isinstance(new, Exception)}
        for tag, exc in failed.items():
            self.degraded[tag] = str(exc)
            logger.warning("%s degraded: %s", tag, exc)
        for side in (self.v, self.w):
            side.commit([(eq, new) for tag, s, eq, new in outcomes
                         if s is side and tag not in failed])

    def stale(self, tag):
        """Whether ``tag`` belongs to a spectral-factor pair last rebuilt on
        a smaller basis; a read of it rebuilds the pair first.  A degraded
        pair is never stale."""
        if tag not in self._pair or tag in self.degraded:
            return False
        return any(len(side.eqs["sf"].T) < side.k for side in (self.v, self.w))

    # -- outputs ------------------------------------------------------------

    def _entry(self, tag, started=False):
        """The table entry (side, eq, weight, right) of an enabled tag,
        rebuilt first if it is stale; with ``started``, the engine must have
        taken a step."""
        if tag not in self.table:
            raise EquationSkipped(
                f"{tag} not enabled: {self.skipped.get(tag, 'not selected')}"
                if tag in ALL_TAGS else f"unknown equation tag {tag!r}")
        if started and self.v.k == 0 and self.w.k == 0:
            raise EquationSkipped("no completed iterations")
        if self.stale(tag):
            self._apply(self._pair_outcomes())
        return self.table[tag]

    def extract(self, tag):
        side, eq, weight, right = self._entry(tag, started=True)
        if eq.T is None:
            middle = (None if weight is None else
                      np.kron(np.eye(side.k // side.sys.m), weight))
            return LowRankSolution(side.X.copy(), middle, tag=tag)
        # a degraded equation's transform covers a prefix of the basis
        q = eq.T.shape[0]
        middle = np.eye(eq.T.shape[1]) if eq.M is None else eq.M.copy()
        other = None if right is None else self.W[:, :q] @ right.T  # sylv's W half
        return LowRankSolution(side.X[:, :q] @ eq.T, middle, other, tag=tag)

    def rank(self, tag):
        """Rank of extract(tag), read off the stored transforms without
        forming the n-row factors."""
        side, eq, _, _ = self._entry(tag, started=True)
        return side.k if eq.T is None else eq.T.shape[1]

    def residual_factor(self, tag):
        _, eq, weight, right = self._entry(tag)
        if right is not None:
            return (ResidualFactor(eq.perp.copy()),
                    ResidualFactor(right.perp.T.copy()))
        return ResidualFactor(eq.perp.copy(),
                              None if weight is None else weight.copy())

    def _norm(self, tag):
        """Unnormalized residual norm of an enabled tag, from the Grams its
        records hold."""
        _, eq, weight, right = self.table[tag]
        return gram_norm2(eq.gram, weight, right and right.gram, grams=True)

    def residual_norm(self, tag):
        self._entry(tag)
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
