"""Unified low-rank ADI engine.

One engine step performs exactly two large shifted solves (one per system
side) and feeds every selected matrix equation through small-scale
extraction transforms: each equation's basis is the shared Lyapunov-ADI
basis times a small block-triangular transform obtained from a small
Sylvester solve, its middle matrix comes from a small Lyapunov solve, and
its residual is tracked exactly as a thin factor.

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
from .realify import ShiftUnit, lyap_sl, realified_columns, sylv_case, sylv_sl
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

_V_SIDE = ("ricc_p", "inf_p", "pr_p", "br_p", "mp_p")
_W_SIDE = ("ricc_q", "inf_q", "pr_q", "br_q", "mp_q")

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


class _EqSide:
    """Standing extraction state of one Riccati-family equation on one side."""

    def __init__(self, perp, has_middle=True):
        self.T = np.zeros((0, 0))
        self.Phat = np.zeros((0, 0)) if has_middle else None
        self.perp = np.array(perp, dtype=float)
        self.has_middle = has_middle


class _SylvState:
    def __init__(self, B1, C2):
        self.Tv = np.zeros((0, 0))
        self.Tw = np.zeros((0, 0))
        self.D = np.zeros((0, 0))
        self.Sv = np.zeros((0, 0))
        self.Lv = np.zeros((B1.shape[1], 0))
        self.Sw = np.zeros((0, 0))
        self.Lw = np.zeros((C2.shape[0], 0))
        self.Bperp = np.array(B1, dtype=float)
        self.Cperp = np.array(C2, dtype=float)
        self.consumed_v = 0
        self.consumed_w = 0
        self.pending_a = []  # (ShiftUnit, col_start, col_end) on the V side
        self.pending_b = []
        self.mode = "cases"  # or "direct" once grouping becomes impossible
        self.Xinv = np.zeros((0, 0))


class _SfState:
    def __init__(self, Bp0, Cp0):
        self.Tv = np.zeros((0, 0))
        self.Phat = np.zeros((0, 0))
        self.Tw = np.zeros((0, 0))
        self.Qhat = np.zeros((0, 0))
        self.Bperp = np.array(Bp0, dtype=float)
        self.Cperp = np.array(Cp0, dtype=float)


class UadiState:
    """All accumulators of one unified-ADI run (single-owner, mutable)."""

    def __init__(self, sys1, sys2, params, selection):
        self.sys1, self.sys2 = sys1, sys2
        self.params = params if params is not None else EquationParams()
        self.S1, self.S2 = self.params.resolved(sys1, sys2)
        self.selection = selection
        self.iteration = 0
        self.large_solve_count = 0
        self.alpha_units, self.beta_units = [], []
        n1, n2, m1, p2 = sys1.n, sys2.n, sys1.m, sys2.p
        # V, W and E1 V, E2^T W: grown in place, read through the properties
        self._V, self._W = _Columns(n1), _Columns(n2)
        self._EV, self._EW = _Columns(n1), _Columns(n2)
        # Sv, Sw with their Schur forms, grown one diagonal block per unit
        self.Sv_schur = schur_form(np.zeros((0, 0)))
        self.Lv = np.zeros((m1, 0))
        self.Sw_schur = schur_form(np.zeros((0, 0)))
        self.Lw = np.zeros((p2, 0))
        self.Gc = np.zeros((0, sys1.p))   # V^T C1^T
        self.Gb = np.zeros((0, sys2.m))   # W^T B2
        self.VW = np.zeros((0, 0))        # V^T W (spectral-factor branch only)
        self.Bperp = np.array(sys1.B, dtype=float)
        self.Cperp = np.array(sys2.C, dtype=float)
        self.enabled = set()
        self.skipped = {}
        self.degraded = {}
        self.eqs = {}
        self.sylv = None
        self.sf = None
        self._v_bounds = [0]   # basis-column counts at unit boundaries
        self._w_bounds = [0]
        self._resolve_feasibility()
        self._prepare_constants()
        # One system (G1 = G2): the W side solves with the V side's LU of
        # A + beta E, transposed, so each shift is factored once.
        self.cache1 = FactorizationCache(sys1.A, sys1.E)
        self.cache2 = (self.cache1.transposed() if self.single_system else
                       FactorizationCache(sys2.A.T.tocsc(), sys2.E.T.tocsc()))

    V = property(lambda self: self._V.view, doc="Shared basis of the V side.")
    W = property(lambda self: self._W.view, doc="Shared basis of the W side.")
    EV = property(lambda self: self._EV.view, doc="E1 @ V")
    EW = property(lambda self: self._EW.view, doc="E2^T @ W")

    def declare_recurring(self, alphas, betas):
        """Shifts the caller will use again: their LUs stay cached."""
        self.cache1.declare_recurring(alphas)
        self.cache2.declare_recurring(betas)

    @property
    def Sv(self):
        return self.Sv_schur.a

    @property
    def Sw(self):
        return self.Sw_schur.a

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
        feasible = {"lyap_p", "lyap_q", "ldl_p", "ldl_q", "ricc_p", "ricc_q",
                    "inf_p", "inf_q"}

        def d_ok(D):
            if D.shape[0] != D.shape[1]:
                return False, "D is not square"
            sv = spla.svdvals(D)
            if sv[-1] == 0 or sv[0] / sv[-1] > 1e12:
                return False, "D is singular or too ill-conditioned"
            return True, ""

        ok1, why1 = d_ok(s1.D)
        ok2, why2 = d_ok(s2.D)
        if ok1:
            feasible.add("mp_p")
        else:
            self._skip("mp_p", why1)
        if ok2:
            feasible.add("mp_q")
        else:
            self._skip("mp_q", why2)
        if s1.m == s2.p:
            feasible.add("sylv")
        else:
            self._skip("sylv", f"m1={s1.m} != p2={s2.p}")
        if ok1 and _is_spd(s1.D + s1.D.T):
            feasible.add("pr_p")
        else:
            self._skip("pr_p", "D1 + D1^T is not symmetric positive definite")
        if ok2 and _is_spd(s2.D + s2.D.T):
            feasible.add("pr_q")
        else:
            self._skip("pr_q", "D2 + D2^T is not symmetric positive definite")
        if np.any(s1.D) and _is_spd(np.eye(s1.p) - s1.D @ s1.D.T):
            feasible.add("br_p")
        else:
            self._skip("br_p", "D1 = 0" if not np.any(s1.D)
                       else "I - D1 D1^T is not positive definite")
        if np.any(s2.D) and _is_spd(np.eye(s2.m) - s2.D.T @ s2.D):
            feasible.add("br_q")
        else:
            self._skip("br_q", "D2 = 0" if not np.any(s2.D)
                       else "I - D2^T D2 is not positive definite")
        same = self.single_system = s1.same_realization(s2)
        if same and _is_spd(s1.D.T @ s1.D) and _is_spd(s2.D @ s2.D.T):
            feasible |= {"sf_p", "sf_q"}
        else:
            why = "G1 != G2" if not same else "D^T D / D D^T not positive definite"
            self._skip("sf_p", why)
            self._skip("sf_q", why)
        if self.params.gamma1 == 1.0 or self.params.gamma2 == 1.0:
            logger.info("gamma = 1: bounded-gain equations reduce to the "
                        "plain Lyapunov equations")
        if self.params.gamma1 < 1.0 or self.params.gamma2 < 1.0:
            logger.warning("gamma < 1 flips the sign of the quadratic term; "
                           "the bounded-gain equations become Lyapunov-like")
        self.enabled = want & feasible

    # -- constants and per-equation configs --------------------------------

    def _prepare_constants(self):
        s1, s2 = self.sys1, self.sys2

        def cn(value):
            return value if value > 0 else 1.0

        self.const = {
            "lyap_p": cn(gram_norm2(s1.B)),
            "lyap_q": cn(gram_norm2(s2.C.T)),
            "ldl_p": cn(gram_norm2(s1.B, self.S1)),
            "ldl_q": cn(gram_norm2(s2.C.T, self.S2)),
        }
        if "sylv" in self.enabled:
            self.const["sylv"] = cn(gram_norm2(s1.B, np.eye(s1.m), s2.C.T))
        self.const["ricc_p"] = self.const["inf_p"] = self.const["lyap_p"]
        self.const["ricc_q"] = self.const["inf_q"] = self.const["lyap_q"]
        self.vcfg, self.wcfg = {}, {}
        m1, p1, m2, p2 = s1.m, s1.p, s2.m, s2.p
        g1c = 1.0 - self.params.gamma1 ** -2
        g2c = 1.0 - self.params.gamma2 ** -2
        if "ricc_p" in self.enabled:
            self.vcfg["ricc_p"] = dict(fb=None, qk=np.eye(p1), rr=np.eye(m1), mid=True)
        if "ricc_q" in self.enabled:
            self.wcfg["ricc_q"] = dict(fb=None, qk=np.eye(m2), rr=np.eye(p2), mid=True)
        if "inf_p" in self.enabled:
            self.vcfg["inf_p"] = dict(fb=None, qk=g1c * np.eye(p1), rr=np.eye(m1), mid=True)
        if "inf_q" in self.enabled:
            self.wcfg["inf_q"] = dict(fb=None, qk=g2c * np.eye(m2), rr=np.eye(p2), mid=True)
        if "mp_p" in self.enabled:
            D1i = spla.inv(s1.D)
            self.vcfg["mp_p"] = dict(fb=D1i, qk=None, rr=D1i, mid=False)
            self.const["mp_p"] = cn(gram_norm2(s1.B @ D1i))
        if "mp_q" in self.enabled:
            D2i = spla.inv(s2.D)
            self.wcfg["mp_q"] = dict(fb=D2i.T, qk=None, rr=D2i.T, mid=False)
            self.const["mp_q"] = cn(gram_norm2((D2i @ s2.C).T))
        if "pr_p" in self.enabled:
            Dp = s1.D + s1.D.T
            Dpi = spla.inv(Dp)
            _, Dpis = _sqrtm_spd(Dp)
            self.vcfg["pr_p"] = dict(fb=Dpi, qk=-Dpi, rr=Dpis, mid=True)
            self.const["pr_p"] = cn(gram_norm2(s1.B @ Dpis))
        if "pr_q" in self.enabled:
            Dp2 = s2.D + s2.D.T
            Dp2i = spla.inv(Dp2)
            _, Dp2is = _sqrtm_spd(Dp2)
            self.wcfg["pr_q"] = dict(fb=Dp2i, qk=-Dp2i, rr=Dp2is, mid=True)
            self.const["pr_q"] = cn(gram_norm2((Dp2is @ s2.C).T))
        if "br_p" in self.enabled:
            Dbi = spla.inv(np.eye(p1) - s1.D @ s1.D.T)
            Bsc, _ = _sqrtm_spd(np.eye(m1) + s1.D.T @ Dbi @ s1.D)
            self.vcfg["br_p"] = dict(fb=-(s1.D.T @ Dbi), qk=-Dbi, rr=Bsc, mid=True)
            self.const["br_p"] = cn(gram_norm2(s1.B @ Bsc))
        if "br_q" in self.enabled:
            Db2i = spla.inv(np.eye(m2) - s2.D.T @ s2.D)
            Csc, _ = _sqrtm_spd(np.eye(p2) + s2.D @ Db2i @ s2.D.T)
            self.wcfg["br_q"] = dict(fb=-(s2.D @ Db2i), qk=-Db2i, rr=Csc, mid=True)
            self.const["br_q"] = cn(gram_norm2((Csc @ s2.C).T))
        for tag in _V_SIDE:
            if tag in self.enabled:
                perp0 = s1.B @ self.vcfg[tag]["rr"]
                self.eqs[tag] = _EqSide(perp0, has_middle=self.vcfg[tag]["mid"])
        for tag in _W_SIDE:
            if tag in self.enabled:
                perp0 = self.wcfg[tag]["rr"].T @ s2.C
                self.eqs[tag] = _EqSide(perp0, has_middle=self.wcfg[tag]["mid"])
        if "sylv" in self.enabled:
            self.sylv = _SylvState(s1.B, s2.C)
        if "sf_p" in self.enabled or "sf_q" in self.enabled:
            DtD = s1.D.T @ s1.D
            DDt = s2.D @ s2.D.T
            _, self._DtD_isq = _sqrtm_spd(DtD)
            self._DtD_i = spla.inv(DtD)
            _, self._DDt_isq = _sqrtm_spd(DDt)
            self._DDt_i = spla.inv(DDt)
            self.sf = _SfState(s1.B @ self._DtD_isq, self._DDt_isq @ s2.C)
            self.const["sf_p"] = cn(gram_norm2(s1.B @ self._DtD_isq))
            self.const["sf_q"] = cn(gram_norm2((self._DDt_isq @ s2.C).T))

    # -- generic Riccati-family extraction ---------------------------------

    def _extract_side(self, tag, cfg, eq, Ahat, L, Gx, s, l, kprev, EX):
        """Advance one equation by one basis block of its side."""
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
        sv_small = spla.svdvals(t_new)
        if sv_small[-1] <= 1e-13 * max(sv_small[0], 1.0):
            raise ExtractionSingular(f"{tag}: trailing transform block singular")
        Phat, mid = eq.Phat, l.T
        if eq.has_middle:
            xhat = Gx.T @ t  # projected output/input map of the new direction
            small = solve_small_lyapunov(-s, l.T @ l + xhat.T @ cfg["qk"] @ xhat)
            phat = spla.inv(small)
            Phat = spla.block_diag(eq.Phat, phat)
            mid = phat @ l.T
        upd = (EX @ t) @ mid
        # committed together, once every small solve of the step succeeded,
        # so a degraded equation keeps a consistent T, Phat and perp
        eq.T = np.block([
            [eq.T, t[:kprev]],
            [np.zeros((wid, kprev)), t_new],
        ])
        eq.Phat = Phat
        eq.perp = eq.perp - (upd if tag in _V_SIDE else upd.T)

    def _run_side(self, side, unit):
        """Expand one side's shared basis and run its extractions."""
        if side == "v":
            cache, m = self.cache1, self.sys1.m
            rhs = self.Bperp
        else:
            cache, m = self.cache2, self.sys2.p
            rhs = self.Cperp.T
        sol = cache.solve(unit.value, rhs)
        self.large_solve_count += 1
        block = _flush_subnormals(realified_columns(unit, sol))
        s, l = lyap_sl(unit, m)
        wid = block.shape[1]
        if side == "v":
            kprev = self.V.shape[1]
            self.Sv_schur = self.Sv_schur.extended(self.Lv.T @ l,
                                                     schur_form(s))
            self.Lv = np.hstack([self.Lv, l])
            self._V.append(block)
            Eb = self.sys1.E @ block
            self._EV.append(Eb)
            self.Gc = np.vstack([self.Gc, block.T @ self.sys1.C.T])
            if self.sf is not None:
                self.VW = np.vstack([self.VW, block.T @ self.W])
            self.Bperp = self.Bperp - Eb @ l.T
            Ahat = -self.Sv.T
            for tag in _V_SIDE:
                if tag in self.enabled and tag not in self.degraded:
                    try:
                        self._extract_side(tag, self.vcfg[tag], self.eqs[tag],
                                           Ahat, self.Lv, self.Gc, s, l,
                                           kprev, self.EV)
                    except _NUMERICAL_FAILURES as exc:
                        err = SmallSolveFailure(tag, str(exc))
                        self.degraded[tag] = err.reason
                        logger.warning("%s degraded: %s", tag, err)
            self._v_bounds.append(kprev + wid)
            if self.sylv is not None:
                self.sylv.pending_a.append((unit, kprev, kprev + wid))
        else:
            kprev = self.W.shape[1]
            self.Sw_schur = self.Sw_schur.extended(self.Lw.T @ l,
                                                     schur_form(s))
            self.Lw = np.hstack([self.Lw, l])
            self._W.append(block)
            Eb = self.sys2.E.T @ block
            self._EW.append(Eb)
            self.Gb = np.vstack([self.Gb, block.T @ self.sys2.B])
            if self.sf is not None:
                self.VW = np.hstack([self.VW, self.V.T @ block])
            self.Cperp = self.Cperp - l @ Eb.T
            Ahat = -self.Sw.T
            for tag in _W_SIDE:
                if tag in self.enabled and tag not in self.degraded:
                    try:
                        self._extract_side(tag, self.wcfg[tag], self.eqs[tag],
                                           Ahat, self.Lw, self.Gb, s, l,
                                           kprev, self.EW)
                    except _NUMERICAL_FAILURES as exc:
                        err = SmallSolveFailure(tag, str(exc))
                        self.degraded[tag] = err.reason
                        logger.warning("%s degraded: %s", tag, err)
            self._w_bounds.append(kprev + wid)
            if self.sylv is not None:
                self.sylv.pending_b.append((unit, kprev, kprev + wid))

    # -- Sylvester branch ---------------------------------------------------

    def _sylv_try_fire(self):
        sy = self.sylv
        while sy.pending_a and sy.pending_b:
            a0, b0 = sy.pending_a[0][0], sy.pending_b[0][0]
            if a0.is_pair == b0.is_pair:
                na, nb = 1, 1
            elif not a0.is_pair:
                if len(sy.pending_a) < 2:
                    return  # wait for the second real alpha unit
                if sy.pending_a[1][0].is_pair:
                    self._sylv_to_direct("a real alpha shift faces a beta "
                                         "pair with no second real alpha")
                    return
                na, nb = 2, 1
            else:
                if len(sy.pending_b) < 2:
                    return
                if sy.pending_b[1][0].is_pair:
                    self._sylv_to_direct("an alpha pair faces a real beta "
                                         "shift with no second real beta")
                    return
                na, nb = 1, 2
            a_items = [sy.pending_a.pop(0) for _ in range(na)]
            b_items = [sy.pending_b.pop(0) for _ in range(nb)]
            try:
                self._sylv_fire([it[0] for it in a_items],
                                [it[0] for it in b_items],
                                a_items[-1][2], b_items[-1][2])
            except _NUMERICAL_FAILURES as exc:
                self.degraded["sylv"] = str(exc)
                logger.warning("sylv degraded: %s", exc)
                return

    def _sylv_to_direct(self, why):
        """Ungroupable shift pattern: switch the Sylvester branch to the
        one-shot coupling solve on the full shift bookkeeping.  The product
        is the factored-ADI one whenever the case route is also defined."""
        logger.info("sylv: %s; switching to the direct coupling solve", why)
        self.sylv.mode = "direct"
        self._sylv_direct()

    def _sylv_direct(self):
        """One-shot coupling solve on the largest aligned basis prefixes.

        The prefixes must end at unit boundaries on both sides so that the
        coupling matrix is square; with equally many scalar shifts consumed
        per side this is the full basis.
        """
        sy = self.sylv
        q = max(set(self._v_bounds) & set(self._w_bounds))
        if q == 0:
            return
        X = solve_small_sylvester(
            -self.Sw[:q, :q].T, self.Sv[:q, :q],
            self.Lw[:, :q].T @ self.Lv[:, :q],
        )
        sy.Xinv = spla.inv(X)
        sy.Bperp = self.sys1.B - self.EV[:, :q] @ (sy.Xinv @ self.Lw[:, :q].T)
        sy.Cperp = self.sys2.C - (self.Lv[:, :q] @ sy.Xinv) @ self.EW[:, :q].T
        sy.consumed_v = sy.consumed_w = q

    def _sylv_fire(self, a_units, b_units, kv, kw):
        sy = self.sylv
        m = self.sys1.m
        case = sylv_case(a_units, b_units)
        sv, lv, sw, lw = sylv_sl(case, a_units, b_units, m)
        kvp, kwp = sy.consumed_v, sy.consumed_w
        wid = lv.shape[1]
        # transform of the shared V prefix into the factored-ADI direction
        Fv = -self.Sv[:kv, :kv].T
        Gv = self.Lv[:, :kv].T
        if kvp:
            Gv = Gv - _pad_rows(sy.Tv @ sy.D @ sy.Lw.T, kv - kvp)
        tv = solve_small_sylvester(Fv, sv, Gv @ lv)
        Fw = -self.Sw[:kw, :kw].T
        Gw = self.Lw[:, :kw].T
        if kwp:
            Gw = Gw - _pad_rows(sy.Tw @ sy.D.T @ sy.Lv.T, kw - kwp)
        tw = solve_small_sylvester(Fw, sw, Gw @ lw)
        for name, t, kp in (("v", tv, kvp), ("w", tw, kwp)):
            svals = spla.svdvals(t[kp:])
            if svals[-1] <= 1e-13 * max(svals[0], 1.0):
                raise ExtractionSingular(f"sylv {name}: trailing block singular")
        d = solve_small_sylvester(-sw.T, sv, lw.T @ lv)
        dinv = spla.inv(d)
        sy.Sv = np.block([
            [sy.Sv, sy.D @ sy.Lw.T @ lv],
            [np.zeros((wid, kvp)), sv],
        ])
        sy.Sw = np.block([
            [sy.Sw, sy.D.T @ sy.Lv.T @ lw],
            [np.zeros((wid, kwp)), sw],
        ])
        sy.Lv = np.hstack([sy.Lv, lv])
        sy.Lw = np.hstack([sy.Lw, lw])
        sy.Tv = np.block([[sy.Tv, tv[:kvp]], [np.zeros((wid, kvp)), tv[kvp:]]])
        sy.Tw = np.block([[sy.Tw, tw[:kwp]], [np.zeros((wid, kwp)), tw[kwp:]]])
        sy.D = spla.block_diag(sy.D, dinv)
        sy.Bperp = sy.Bperp - (self.EV[:, :kv] @ tv) @ (dinv @ lw.T)
        sy.Cperp = sy.Cperp - (lv @ dinv) @ (self.EW[:, :kw] @ tw).T
        sy.consumed_v, sy.consumed_w = kv, kw

    # -- spectral-factor branch (recomputed whole each step) ----------------

    def _sf_recompute(self):
        sf = self.sf
        try:
            Msv = self.Gb.T @ self.VW.T + self.sys1.D.T @ self.Gc.T
            Fv = -self.Sv.T - self.Lv.T @ self._DtD_i @ Msv
            Tv = solve_small_sylvester(Fv, self.Sv_schur,
                                       self.Lv.T @ self._DtD_isq @ self.Lv)
            Csv = self._DtD_isq @ Msv @ Tv
            Xp = solve_small_lyapunov(-self.Sv_schur,
                                      self.Lv.T @ self.Lv - Csv.T @ Csv)
            Phat = spla.inv(Xp)
            Msw = self.Gc.T @ self.VW + self.sys2.D @ self.Gb.T
            Fw = -self.Sw.T - self.Lw.T @ self._DDt_i @ Msw
            Tw = solve_small_sylvester(Fw, self.Sw_schur,
                                       self.Lw.T @ self._DDt_isq @ self.Lw)
            Bsw = self._DDt_isq @ Msw @ Tw
            Xq = solve_small_lyapunov(-self.Sw_schur,
                                      self.Lw.T @ self.Lw - Bsw.T @ Bsw)
            Qhat = spla.inv(Xq)
        except _NUMERICAL_FAILURES as exc:
            self.degraded["sf_p"] = self.degraded["sf_q"] = str(exc)
            logger.warning("sf degraded: %s", exc)
            return
        sf.Tv, sf.Phat, sf.Tw, sf.Qhat = Tv, Phat, Tw, Qhat
        sf.Bperp = self.sys1.B @ self._DtD_isq - self.EV @ (Tv @ Phat @ self.Lv.T)
        sf.Cperp = self._DDt_isq @ self.sys2.C - (self.Lw @ Qhat @ Tw.T) @ self.EW.T
        self.degraded.pop("sf_p", None)
        self.degraded.pop("sf_q", None)

    # -- public stepping ----------------------------------------------------

    def step(self, alpha, beta):
        """Consume one shift unit per side (a complex shift stands for its
        conjugate pair) with exactly two large shifted solves."""
        au = alpha if isinstance(alpha, ShiftUnit) else ShiftUnit(alpha)
        bu = beta if isinstance(beta, ShiftUnit) else ShiftUnit(beta)
        self._run_side("v", au)
        self._run_side("w", bu)
        self.alpha_units.append(au)
        self.beta_units.append(bu)
        if self.sylv is not None and "sylv" not in self.degraded:
            if self.sylv.mode == "cases":
                self._sylv_try_fire()
            else:
                try:
                    self._sylv_direct()
                except _NUMERICAL_FAILURES as exc:
                    self.degraded["sylv"] = str(exc)
                    logger.warning("sylv degraded: %s", exc)
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

    def extract(self, tag):
        self._check_tag(tag)
        kv, kw = self.V.shape[1], self.W.shape[1]
        if kv == 0 and kw == 0:
            raise EquationSkipped("no completed iterations")
        m1 = self.sys1.m
        p2 = self.sys2.p
        if tag == "lyap_p":
            return LowRankSolution(self.V.copy(), tag=tag)
        if tag == "lyap_q":
            return LowRankSolution(self.W.copy(), tag=tag)
        if tag == "ldl_p":
            return LowRankSolution(self.V.copy(),
                                   np.kron(np.eye(kv // m1), self.S1), tag=tag)
        if tag == "ldl_q":
            return LowRankSolution(self.W.copy(),
                                   np.kron(np.eye(kw // p2), self.S2), tag=tag)
        if tag == "sylv":
            sy = self.sylv
            if sy.mode == "direct":
                return LowRankSolution(self.V[:, : sy.consumed_v].copy(),
                                       sy.Xinv.copy(),
                                       self.W[:, : sy.consumed_w].copy(), tag=tag)
            return LowRankSolution(self.V[:, : sy.consumed_v] @ sy.Tv,
                                   sy.D.copy(),
                                   self.W[:, : sy.consumed_w] @ sy.Tw, tag=tag)
        if tag in ("sf_p", "sf_q"):
            sf = self.sf
            if tag == "sf_p":
                return LowRankSolution(self.V @ sf.Tv, sf.Phat.copy(), tag=tag)
            return LowRankSolution(self.W @ sf.Tw, sf.Qhat.copy(), tag=tag)
        eq = self.eqs[tag]
        # a degraded equation's transform covers a prefix of the basis
        base = (self.V if tag in _V_SIDE else self.W)[:, : eq.T.shape[0]]
        middle = np.eye(eq.T.shape[1]) if eq.Phat is None else eq.Phat.copy()
        return LowRankSolution(base @ eq.T, middle, tag=tag)

    def rank(self, tag):
        """Rank of extract(tag), read off the stored transforms without
        forming the n-row factors."""
        self._check_tag(tag)
        kv, kw = self.V.shape[1], self.W.shape[1]
        if kv == 0 and kw == 0:
            raise EquationSkipped("no completed iterations")
        if tag in ("lyap_p", "ldl_p"):
            return kv
        if tag in ("lyap_q", "ldl_q"):
            return kw
        if tag == "sylv":
            sy = self.sylv
            return sy.consumed_v if sy.mode == "direct" else sy.Tv.shape[1]
        if tag == "sf_p":
            return self.sf.Tv.shape[1]
        if tag == "sf_q":
            return self.sf.Tw.shape[1]
        return self.eqs[tag].T.shape[1]

    def residual_factor(self, tag):
        self._check_tag(tag)
        if tag == "lyap_p":
            return ResidualFactor(self.Bperp.copy())
        if tag == "lyap_q":
            return ResidualFactor(self.Cperp.T.copy(), side="right")
        if tag == "ldl_p":
            return ResidualFactor(self.Bperp.copy(), self.S1.copy())
        if tag == "ldl_q":
            return ResidualFactor(self.Cperp.T.copy(), self.S2.copy(), side="right")
        if tag == "sylv":
            return (ResidualFactor(self.sylv.Bperp.copy()),
                    ResidualFactor(self.sylv.Cperp.copy(), side="right"))
        if tag == "sf_p":
            return ResidualFactor(self.sf.Bperp.copy())
        if tag == "sf_q":
            return ResidualFactor(self.sf.Cperp.T.copy(), side="right")
        eq = self.eqs[tag]
        if tag in _V_SIDE:
            return ResidualFactor(eq.perp.copy())
        return ResidualFactor(eq.perp.T.copy(), side="right")

    def residual_norm(self, tag):
        self._check_tag(tag)
        if tag == "sylv":
            sy = self.sylv
            raw = gram_norm2(sy.Bperp, np.eye(sy.Bperp.shape[1]), sy.Cperp.T)
        elif tag == "ldl_p":
            raw = gram_norm2(self.Bperp, self.S1)
        elif tag == "ldl_q":
            raw = gram_norm2(self.Cperp.T, self.S2)
        elif tag == "lyap_p":
            raw = gram_norm2(self.Bperp)
        elif tag == "lyap_q":
            raw = gram_norm2(self.Cperp.T)
        elif tag == "sf_p":
            raw = gram_norm2(self.sf.Bperp)
        elif tag == "sf_q":
            raw = gram_norm2(self.sf.Cperp.T)
        elif tag in _V_SIDE:
            raw = gram_norm2(self.eqs[tag].perp)
        else:
            raw = gram_norm2(self.eqs[tag].perp.T)
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
