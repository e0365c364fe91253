"""Unified low-rank ADI engine.

One engine step performs exactly two large shifted solves (one per system
side) and feeds every selected matrix equation through small-scale
extraction transforms: each equation's basis is the shared Lyapunov-ADI
basis times a small block-triangular transform obtained from a small
Sylvester solve, its middle matrix comes from a small Lyapunov solve, and
its residual is tracked exactly as a thin factor.

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
    EquationSkipped,
    ExtractionSingular,
    InfeasibleHard,
    SmallSolveFailure,
    UadiError,
)
from .classic import LowRankSolution, ResidualFactor
from .linalg import (
    FactorizationCache,
    gram_norm2,
    schur_form,
    solve_small_lyapunov,
    solve_small_sylvester,
)
from .realify import ShiftUnit, lyap_sl, realified_columns
from .systems import EquationParams

logger = logging.getLogger("uadi")

# Numerical failures of one equation's small solves: the equation is marked
# degraded and the run goes on.  Anything else is a bug and propagates.
_NUMERICAL_FAILURES = (UadiError, np.linalg.LinAlgError)

ALL_TAGS = (
    "lyap_p", "lyap_q", "ldl_p", "ldl_q", "mp_p", "mp_q", "sylv",
    "ricc_p", "ricc_q", "inf_p", "inf_q", "pr_p", "pr_q", "br_p", "br_q",
    "sf_p", "sf_q",
)

# Riccati-family equations extracted block by block on each side
_FAMILIES = ("ricc", "inf", "pr", "br", "mp")

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
                raise ValueError(f"unknown equation tag {t!r}; known: {ALL_TAGS}")
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
    block is flushed before anything is derived from it, so the tracked
    residual stays exact for the stored basis.
    """
    block[np.abs(block) < np.finfo(block.dtype).tiny] = 0.0
    return block


class _Columns:
    """An n-row float array that grows by appending column blocks in place.

    Column-major storage whose capacity doubles when full, so a new block
    costs O(n m) copied bytes, amortized, instead of a copy of the whole
    basis; only the filled columns of a buffer are ever written, so the
    unused capacity is never made resident.  ``view`` is the filled part,
    read-only.  Filled columns are never written again, so a view taken
    earlier keeps its values when the buffer is reallocated.
    """

    def __init__(self, n):
        self._buf = np.empty((n, 0), order="F")
        self.k = 0

    @property
    def view(self):
        v = self._buf[:, : self.k]
        v.flags.writeable = False
        return v

    def append(self, block):
        k = self.k + block.shape[1]
        if k > self._buf.shape[1]:
            buf = np.empty((self._buf.shape[0], max(k, 2 * self._buf.shape[1])),
                           order="F")
            buf[:, : self.k] = self._buf[:, : self.k]
            self._buf = buf
        self._buf[:, self.k : k] = block
        self.k = k


def _grow_upper(M, top_right, corner):
    """Block upper-triangular [[M, top_right], [0, corner]]."""
    return np.block([
        [M, top_right],
        [np.zeros((corner.shape[0], M.shape[1])), corner],
    ])


def _check_trailing(t_new, what):
    """Raise ExtractionSingular if a transform's trailing block is singular."""
    svals = spla.svdvals(t_new)
    if svals[-1] <= 1e-13 * max(svals[0], 1.0):
        raise ExtractionSingular(f"{what}: trailing transform block singular")


def _family_configs(sys, gamma, name):
    """Configs of one side's Riccati-family equations keyed by family, and
    the reasons the infeasible families are skipped.

    A config holds the feedback ``fb`` and quadratic weight ``qk`` of the
    projected equation, the scaling ``rr`` of its right-hand side B rr with
    its inverse ``rri``, and whether the equation has a middle matrix.
    ``name`` names the system in the skip reasons.
    """
    m, p, D = sys.m, sys.p, sys.D
    I = np.eye(m)
    cfg = {
        "ricc": dict(fb=None, qk=np.eye(p), rr=I, rri=I, mid=True),
        "inf": dict(fb=None, qk=(1.0 - gamma ** -2) * np.eye(p), rr=I, rri=I,
                    mid=True),
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
        cfg["mp"] = dict(fb=Di, qk=None, rr=Di, rri=D, mid=False)
    else:
        skip["mp"] = why
    if invertible and _is_spd(D + D.T):
        Dp = D + D.T
        Dpi = spla.inv(Dp)
        sq, isq = _sqrtm_spd(Dp)
        cfg["pr"] = dict(fb=Dpi, qk=-Dpi, rr=isq, rri=sq, mid=True)
    else:
        skip["pr"] = f"D + D^T of {name} is not symmetric positive definite"
    if np.any(D) and _is_spd(np.eye(p) - D @ D.T):
        Dbi = spla.inv(np.eye(p) - D @ D.T)
        sq, isq = _sqrtm_spd(I + D.T @ Dbi @ D)
        cfg["br"] = dict(fb=-(D.T @ Dbi), qk=-Dbi, rr=sq, rri=isq, mid=True)
    else:
        skip["br"] = (f"D of {name} is zero" if not np.any(D)
                      else f"I - D D^T of {name} is not positive definite")
    if _is_spd(D.T @ D):
        DtD = D.T @ D
        sq, isq = _sqrtm_spd(DtD)
        cfg["sf"] = dict(fb=spla.inv(DtD), qk=None, rr=isq, rri=sq, mid=True)
    else:
        skip["sf"] = f"D^T D of {name} is not positive definite"
    return cfg, skip


class _EqSide:
    """Standing extraction state of one Riccati-family equation on one side."""

    def __init__(self, perp, has_middle=True):
        self.T = np.zeros((0, 0))
        self.Phat = np.zeros((0, 0)) if has_middle else None
        self.perp = np.array(perp, dtype=float)
        self.has_middle = has_middle


class _Side:
    """One side of the engine: the low-rank ADI basis of one system and the
    Riccati-family equations extracted from it.

    The V side runs on G1.  The W side is the same algorithm on
    G2.dual() = (E2^T, A2^T, C2^T, B2^T, D2^T): its basis is W, its residual
    factor the n x p factor Cperp^T and its projected output map W^T B2.
    """

    def __init__(self, sys, cache, weight, gamma, name, suffix, orient,
                 degraded):
        self.sys, self.cache, self.weight = sys, cache, weight
        self.suffix = suffix        # tag suffix of this side's equations
        self.orient = orient        # ResidualFactor side of the residual
        self.degraded = degraded    # the engine's tag -> reason record
        self._X, self._EX = _Columns(sys.n), _Columns(sys.n)
        # S with its Schur form, grown one diagonal block per unit
        self.schur = schur_form(np.zeros((0, 0)))
        self.L = np.zeros((sys.m, 0))
        self.G = np.zeros((0, sys.p))   # X^T C^T
        self.perp = np.array(sys.B, dtype=float)
        self.bounds = [0]               # basis-column counts at unit boundaries
        self.cfg, self.skip = _family_configs(sys, gamma, name)
        self.eqs, self.const = {}, {}

    X = property(lambda self: self._X.view, doc="Shared basis, read-only.")
    EX = property(lambda self: self._EX.view, doc="E @ X, read-only.")
    S = property(lambda self: self.schur.a)
    k = property(lambda self: self._X.k)

    def start(self, tags):
        """Keep the families whose tags are in ``tags``, seed their
        equations and Sylvester half, fix every residual's normalization."""
        self.cfg = {f: c for f, c in self.cfg.items() if f + self.suffix in tags}
        self.eqs = {f: _EqSide(self.sys.B @ c["rr"], c["mid"])
                    for f, c in self.cfg.items()}
        self.const = {"lyap": _scale(gram_norm2(self.sys.B)),
                      "ldl": _scale(gram_norm2(self.sys.B, self.weight))}
        for f, eq in self.eqs.items():
            self.const[f] = _scale(gram_norm2(eq.perp))
        self.sylv = (_SylvHalf(np.zeros((0, 0)), np.zeros((0, 0)), self.perp.copy())
                     if "sylv" in tags else None)

    def residual(self, family):
        """Thin factor and weight of one family's tracked residual."""
        if family == "lyap":
            return self.perp, None
        if family == "ldl":
            return self.perp, self.weight
        return self.eqs[family].perp, None

    def expand(self, unit):
        """Extend the basis by one shift unit with one large shifted solve,
        then S, L, G, the residual factor and every family's extraction."""
        sol = self.cache.solve(unit.value, self.perp)
        block = _flush_subnormals(realified_columns(unit, sol))
        s, l = lyap_sl(unit, self.sys.m)
        kprev = self.k
        self.schur = self.schur.extended(self.L.T @ l, schur_form(s))
        self.L = np.hstack([self.L, l])
        self._X.append(block)
        Eb = self.sys.E @ block
        self._EX.append(Eb)
        self.G = np.vstack([self.G, block.T @ self.sys.C.T])
        self.perp = self.perp - Eb @ l.T
        Ahat = -self.S.T
        for fam in _FAMILIES:
            tag = fam + self.suffix
            if fam in self.eqs and tag not in self.degraded:
                try:
                    self._extract(tag, self.cfg[fam], self.eqs[fam], Ahat, s, l,
                                  kprev)
                except _NUMERICAL_FAILURES as exc:
                    err = SmallSolveFailure(tag, str(exc))
                    self.degraded[tag] = err.reason
                    logger.warning("%s degraded: %s", tag, err)
        self.bounds.append(self.k)

    def _extract(self, tag, cfg, eq, Ahat, s, l, kprev):
        """Advance one equation by one basis block."""
        L, Gx = self.L, self.G
        k = Ahat.shape[0]
        wid = k - kprev
        F = Ahat
        if cfg["fb"] is not None:
            F = F - L.T @ cfg["fb"] @ Gx.T
        G = L.T @ cfg["rr"]
        if eq.has_middle:
            if kprev:
                # T Phat T^T stays factored: O(k^2 m) instead of O(k^3)
                PTG = eq.Phat @ (eq.T.T @ Gx[:kprev])
                F = F - _pad_rows(eq.T @ PTG @ cfg["qk"] @ Gx.T, wid)
                G = G - _pad_rows(eq.T @ (eq.Phat @ L[:, :kprev].T), wid)
        elif kprev:
            G = G - _pad_rows(eq.T @ L[:, :kprev].T, wid)
        t = solve_small_sylvester(F, s, G @ l)
        t_new = t[kprev:]
        _check_trailing(t_new, tag)
        Phat, mid = eq.Phat, l.T
        if eq.has_middle:
            xhat = Gx.T @ t  # projected output map of the new direction
            small = solve_small_lyapunov(-s, l.T @ l + xhat.T @ cfg["qk"] @ xhat)
            phat = spla.inv(small)
            Phat = spla.block_diag(eq.Phat, phat)
            mid = phat @ l.T
        upd = (self.EX @ t) @ mid
        # committed together, once every small solve of the step succeeded,
        # so a degraded equation keeps a consistent T, Phat and perp
        eq.T = _grow_upper(eq.T, t[:kprev], t_new)
        eq.Phat = Phat
        eq.perp = eq.perp - upd


@dataclass
class _SylvHalf:
    """One side's half of the Sylvester solution V T_v D T_w^T W^T: the
    transform T of the consumed basis prefix, its shift matrix S (its L is
    the side's L on the prefix) and the residual factor perp (n x m on the
    V side, the n x p Cperp^T on the W side)."""

    T: np.ndarray
    S: np.ndarray
    perp: np.ndarray


def _sylv_advanced(side, other, q, D, dinv):
    """``side``'s Sylvester half after the group of basis columns kp:q,
    whose companion blocks are the side's own S and L on those columns.
    ``D`` (the coupling so far) and ``dinv`` (its new block) are in this
    side's orientation, transposed for the W side.  Mutates nothing."""
    half, kp = side.sylv, side.sylv.T.shape[0]
    s, l = side.S[kp:q, kp:q], side.L[:, kp:q]
    G = side.L[:, :q].T
    if kp:
        G = G - _pad_rows(half.T @ D @ other.L[:, :kp].T, q - kp)
    t = solve_small_sylvester(-side.S[:q, :q].T, s, G @ l)
    _check_trailing(t[kp:], f"sylv {side.suffix} half")
    return _SylvHalf(
        _grow_upper(half.T, t[:kp], t[kp:]),
        _grow_upper(half.S, D @ other.L[:, :kp].T @ l, s),
        half.perp - (side.EX[:, :q] @ t) @ (dinv @ other.L[:, kp:q].T),
    )


def _sf_side(side, other, VW):
    """Spectral-factor transform and middle matrix of one side, recomputed
    on the whole basis; ``VW`` is X^T X_other of this side."""
    c = side.cfg["sf"]
    M = other.G.T @ VW.T + side.sys.D.T @ side.G.T
    F = -side.S.T - side.L.T @ c["fb"] @ M
    T = solve_small_sylvester(F, side.schur, side.L.T @ c["rr"] @ side.L)
    Cs = c["rr"] @ M @ T
    X = solve_small_lyapunov(-side.schur, side.L.T @ side.L - Cs.T @ Cs)
    return T, spla.inv(X)


class _SylvState:
    """The coupling D shared by the two Sylvester halves and the basis
    prefix q they have consumed, equal on both sides by construction."""

    def __init__(self):
        self.D = np.zeros((0, 0))
        self.q = 0


class UadiState:
    """All accumulators of one unified-ADI run (single-owner, mutable)."""

    def __init__(self, sys1, sys2, params, selection):
        self.sys1, self.sys2 = sys1, sys2
        self.params = params if params is not None else EquationParams()
        S1, S2 = self.params.resolved(sys1, sys2)
        self.selection = selection
        self.iteration = 0
        self.large_solve_count = 0
        self.alpha_units, self.beta_units = [], []
        self.enabled = set()
        self.skipped = {}
        self.degraded = {}
        self.single_system = sys1.same_realization(sys2)
        # One system (G1 = G2): the W side solves with the V side's LU of
        # A + beta E, transposed, so each shift is factored once.
        cache1 = FactorizationCache(sys1.A, sys1.E)
        dual = sys2.dual()
        cache2 = (cache1.transposed() if self.single_system else
                  FactorizationCache(dual.A, dual.E))
        self.v = _Side(sys1, cache1, S1, self.params.gamma1, "G1", "_p",
                       "left", self.degraded)
        self.w = _Side(dual, cache2, S2, self.params.gamma2, "G2.dual()", "_q",
                       "right", self.degraded)
        self.VW = np.zeros((0, 0))   # V^T W (spectral-factor branch only)
        self.sylv = None
        self.sf = None
        self._resolve_feasibility()
        self._prepare_constants()

    V = property(lambda self: self.v.X, doc="Shared basis of the V side.")
    W = property(lambda self: self.w.X, doc="Shared basis of the W side.")
    Bperp = property(lambda self: self.v.perp,
                     doc="Residual factor of the controllability Gramian of G1.")
    Cperp = property(lambda self: self.w.perp.T,
                     doc="Residual factor (p x n) of the observability Gramian of G2.")
    cache1 = property(lambda self: self.v.cache)
    cache2 = property(lambda self: self.w.cache)

    def declare_recurring(self, alphas, betas):
        """Shifts the caller will use again: their LUs stay cached."""
        self.v.cache.declare_recurring(alphas)
        self.w.cache.declare_recurring(betas)

    # -- feasibility ------------------------------------------------------

    def _skip(self, tag, reason):
        if tag in self.selection.tags:
            if self.selection.strict:
                raise InfeasibleHard(f"{tag}: {reason}")
            self.skipped[tag] = reason
            logger.info("skipping %s: %s", tag, reason)

    def _resolve_feasibility(self):
        s1, s2 = self.sys1, self.sys2
        want = set(self.selection.tags) | {"lyap_p", "lyap_q"}
        feasible = {"lyap_p", "lyap_q", "ldl_p", "ldl_q"}
        if s1.m == s2.p:
            feasible.add("sylv")
        else:
            self._skip("sylv", f"m1={s1.m} != p2={s2.p}")
        sf_why = ("G1 != G2" if not self.single_system else
                  self.v.skip.get("sf") or self.w.skip.get("sf"))
        for side in (self.v, self.w):
            if sf_why:
                side.cfg.pop("sf", None)
                side.skip["sf"] = sf_why
            feasible |= {f + side.suffix for f in side.cfg}
            for fam, why in side.skip.items():
                self._skip(fam + side.suffix, why)
        if self.params.gamma1 == 1.0 or self.params.gamma2 == 1.0:
            logger.info("gamma = 1: bounded-gain equations reduce to the "
                        "plain Lyapunov equations")
        if self.params.gamma1 < 1.0 or self.params.gamma2 < 1.0:
            logger.warning("gamma < 1 flips the sign of the quadratic term; "
                           "the bounded-gain equations become Lyapunov-like")
        self.enabled = want & feasible

    # -- constants and per-equation state -----------------------------------

    def _prepare_constants(self):
        sf_tags = {"sf_p", "sf_q"}
        # the spectral-factor pair is recomputed together
        keep = self.enabled | (sf_tags if self.enabled & sf_tags else set())
        self.const = {}
        for side in (self.v, self.w):
            side.start(keep)
            self.const.update({f + side.suffix: c for f, c in side.const.items()})
        if "sylv" in self.enabled:
            s1, s2 = self.sys1, self.sys2
            self.const["sylv"] = _scale(gram_norm2(s1.B, np.eye(s1.m), s2.C.T))
            self.sylv = _SylvState()
        if "sf" in self.v.eqs:
            self.sf = (self.v.eqs["sf"], self.w.eqs["sf"])

    # -- Sylvester branch ---------------------------------------------------

    def _sylv_fire(self):
        """Consume the columns up to the largest unit boundary the two
        bases share, if it lies past the consumed prefix."""
        sy, v, w = self.sylv, self.v, self.w
        q, kp = max(set(v.bounds) & set(w.bounds)), sy.q
        if q == kp:
            return
        try:
            d = solve_small_sylvester(-w.S[kp:q, kp:q].T, v.S[kp:q, kp:q],
                                      w.L[:, kp:q].T @ v.L[:, kp:q])
            dinv = spla.inv(d)
            halves = (_sylv_advanced(v, w, q, sy.D, dinv),
                      _sylv_advanced(w, v, q, sy.D.T, dinv.T))
        except _NUMERICAL_FAILURES as exc:
            self.degraded["sylv"] = str(exc)
            logger.warning("sylv degraded: %s", exc)
            return
        v.sylv, w.sylv = halves
        sy.D = spla.block_diag(sy.D, dinv)
        sy.q = q

    # -- spectral-factor branch (recomputed whole each step) ----------------

    def _sf_recompute(self):
        v, w = self.v, self.w
        try:
            found = [(v, *_sf_side(v, w, self.VW)),
                     (w, *_sf_side(w, v, self.VW.T))]
        except _NUMERICAL_FAILURES as exc:
            self.degraded["sf_p"] = self.degraded["sf_q"] = str(exc)
            logger.warning("sf degraded: %s", exc)
            return
        for side, T, Phat in found:
            eq = side.eqs["sf"]
            eq.T, eq.Phat = T, Phat
            eq.perp = (side.sys.B @ side.cfg["sf"]["rr"]
                       - side.EX @ (T @ Phat @ side.L.T))
        self.degraded.pop("sf_p", None)
        self.degraded.pop("sf_q", None)

    # -- public stepping ----------------------------------------------------

    def step(self, alpha, beta):
        """Consume one shift unit per side (a complex shift stands for its
        conjugate pair) with exactly two large shifted solves."""
        au = alpha if isinstance(alpha, ShiftUnit) else ShiftUnit(alpha)
        bu = beta if isinstance(beta, ShiftUnit) else ShiftUnit(beta)
        kv, kw = self.v.k, self.w.k
        for side, unit in ((self.v, au), (self.w, bu)):
            side.expand(unit)
            self.large_solve_count += 1
        self.alpha_units.append(au)
        self.beta_units.append(bu)
        if self.sf is not None:
            self.VW = np.vstack([self.VW, self.V[:, kv:].T @ self.W[:, :kw]])
            self.VW = np.hstack([self.VW, self.V.T @ self.W[:, kw:]])
        if self.sylv is not None and "sylv" not in self.degraded:
            self._sylv_fire()
        if self.sf is not None and not {"sf_p", "sf_q"} <= set(self.degraded):
            self._sf_recompute()
        self.iteration += 1
        return self

    # -- outputs ------------------------------------------------------------

    def _check_tag(self, tag):
        if tag not in ALL_TAGS:
            raise EquationSkipped(f"unknown equation tag {tag!r}")
        if tag not in self.enabled:
            raise EquationSkipped(
                f"{tag} not enabled: {self.skipped.get(tag, 'not selected')}"
            )

    def _locate(self, tag):
        """The side and family of a one-sided equation tag."""
        return (self.v if tag.endswith("_p") else self.w), tag[:-2]

    def extract(self, tag):
        self._check_tag(tag)
        if self.v.k == 0 and self.w.k == 0:
            raise EquationSkipped("no completed iterations")
        if tag == "sylv":
            q = self.sylv.q
            return LowRankSolution(self.V[:, :q] @ self.v.sylv.T,
                                   self.sylv.D.copy(),
                                   self.W[:, :q] @ self.w.sylv.T, tag=tag)
        side, fam = self._locate(tag)
        if fam == "lyap":
            return LowRankSolution(side.X.copy(), tag=tag)
        if fam == "ldl":
            return LowRankSolution(side.X.copy(),
                                   np.kron(np.eye(side.k // side.sys.m),
                                           side.weight), tag=tag)
        eq = side.eqs[fam]
        # a degraded equation's transform covers a prefix of the basis
        base = side.X[:, : eq.T.shape[0]]
        middle = np.eye(eq.T.shape[1]) if eq.Phat is None else eq.Phat.copy()
        return LowRankSolution(base @ eq.T, middle, tag=tag)

    def rank(self, tag):
        """Rank of extract(tag), read off the stored transforms without
        forming the n-row factors."""
        self._check_tag(tag)
        if self.v.k == 0 and self.w.k == 0:
            raise EquationSkipped("no completed iterations")
        if tag == "sylv":
            return self.sylv.q
        side, fam = self._locate(tag)
        if fam in ("lyap", "ldl"):
            return side.k
        return side.eqs[fam].T.shape[1]

    def residual_factor(self, tag):
        self._check_tag(tag)
        if tag == "sylv":
            return (ResidualFactor(self.v.sylv.perp.copy()),
                    ResidualFactor(self.w.sylv.perp.T.copy(), side="right"))
        side, fam = self._locate(tag)
        factor, weight = side.residual(fam)
        return ResidualFactor(factor.copy(),
                              None if weight is None else weight.copy(),
                              side=side.orient)

    def residual_norm(self, tag):
        self._check_tag(tag)
        if tag == "sylv":
            raw = gram_norm2(self.v.sylv.perp, None, self.w.sylv.perp)
        else:
            side, fam = self._locate(tag)
            raw = gram_norm2(*side.residual(fam))
        return raw / self.const[tag]


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
