"""Self-generating ADI shift strategies.

Static lists, the two residual/direction projection strategies, and the
subspace-accelerated strategies: Galerkin dominance ranking per side,
two-sided (Petrov) ranking for balanced truncation, and the alternating
single-shift strategy that prioritizes the Sylvester equation.  An adaptive
oracle holds one window per engine side with all a ranking reads of it: the
side's own system (G1, or G2.dual() on the W side), the residual factor as
the side holds it (n x m on V, n x p on W), or a zero-argument reader of
it that the ranking calls, and the last feedback gain, so one Galerkin
ranking serves both sides.  It skips Ritz values in the closed right
half-plane while a stable one exists: such values are projection
artefacts of a non-normal pencil, not pole estimates.  A window looks onto
the solve-direction basis the iteration already holds (the engine side's X,
CfAdi.Z, Radi.V) by reference, and holds an orthonormal frame Q of it in
one n x (cap + widest block) column-major buffer.  When a ranking asks,
the columns observed since the last one join Q by block classical
Gram-Schmidt with one reorthogonalization (CGS2), a thin QR and an SVD of
its small R; a direction is kept when its singular value exceeds
eps * max(n, width) times the largest column norm the window has held, the
rcond rule of scipy.linalg.orth.  The projected pencil (Q^T A Q, Q^T E Q)
grows by one block row and column from the sparse products of the new
directions only; a projected pencil is basis-invariant, so the ranking
depends on the window's span alone.  Once the window would pass its
column cap it restarts at the newest block and its frame starts over;
Projection-II's window has cap 0.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
from scipy.linalg.blas import dgemm

from .errors import NonFiniteShift, SingularProjectedE, ZeroResidual
from .linalg import small_eig
from .realify import ShiftUnit, as_units

logger = logging.getLogger("uadi")

__all__ = [
    "sanitize_shift",
    "DominanceRanking",
    "rank_dominance",
    "next_shifts_projection1",
    "next_shifts_projection2",
    "next_shift_subspace",
    "next_shift_petrov_bt",
    "StaticShiftOracle",
    "ProjectionShiftOracle",
    "SubspaceShiftOracle",
    "PetrovBtShiftOracle",
    "SylvesterAlternatingOracle",
]

INITIAL_SHIFT = -0.001
DEFAULT_CAP = 20


def sanitize_shift(lam):
    """Force a pole estimate into the open left half-plane.

    Positive real parts are sign-flipped; the real part is then pushed to at
    least 1e-8*(1+|lam|) away from the imaginary axis.
    """
    lam = complex(lam)
    if not (np.isfinite(lam.real) and np.isfinite(lam.imag)):
        raise NonFiniteShift(f"cannot sanitize {lam}")
    margin = 1e-8 * (1.0 + abs(lam))
    re = -abs(lam.real)
    if re > -margin:
        re = -margin
    return complex(re, lam.imag)


@dataclass
class DominanceRanking:
    """Eigenvalues with residue norms and dominance scores, sorted."""

    eigenvalues: np.ndarray
    residue_norms: np.ndarray
    scores: np.ndarray
    order: np.ndarray

    def top(self):
        """The top-ranked eigenvalue.  Of a conjugate pair it is the member
        with Im > 0, so roundoff in the two scores cannot pick the member."""
        lam = complex(self.eigenvalues[self.order[0]])
        return complex(lam.real, abs(lam.imag))


def rank_dominance(eigenvalues, residue_norms):
    """Sort poles by residue-to-damping dominance.

    score_l = ||r_l||^2 / |Re(lambda_l)|; ties broken by larger |Im|, then
    by original index.
    """
    lam = np.asarray(eigenvalues)
    rn = np.asarray(residue_norms, dtype=float)
    damp = np.maximum(np.abs(lam.real), 1e-12 * (1.0 + np.abs(lam)))
    scores = rn ** 2 / damp
    order = np.array(sorted(
        range(len(lam)), key=lambda l: (-scores[l], -abs(lam[l].imag), l)
    ))
    return DominanceRanking(lam, rn, scores, order)


def _projected_pencil(V1, sys, gain=None):
    """Galerkin projection (V1^T (A - gain C) V1, V1^T E V1) of the pencil."""
    AV = sys.A @ V1
    if gain is not None:
        AV = AV - gain @ (sys.C @ V1)
    return V1.T @ AV, V1.T @ (sys.E @ V1)


def _extended(M, cols, rows):
    """[[M, cols[:a]], [rows, cols[a:]]] for M of a rows: M grown by new
    columns (over all rows, the new ones last) and new rows (over M's
    columns)."""
    return np.block([[M, cols[: len(M)]], [rows, cols[len(M) :]]])


def _products(ops, D):
    """op @ D for each operator, side by side in one column-major array.
    A column of a column-major frame is contiguous, so taking D one column
    at a time copies no operand, and each product lands in its column."""
    out = np.empty((len(D), len(ops) * D.shape[1]), order="F")
    for i, op in enumerate(ops):
        for j in range(D.shape[1]):
            out[:, i * D.shape[1] + j] = op @ D[:, j]
    return out


def _fold(held, L, R, ops):
    """The pair (L^T A R, L^T E R) grown from ``held``, its value on the
    leading columns of the frames L and R, by the sparse products of the
    frames' new columns only; ``ops`` is (A, E, A^T, E^T)."""
    a, c = held[0].shape
    if (a, c) == (L.shape[1], R.shape[1]):
        return held
    DR, DL = R[:, c:], L[:, a:]
    d, e = DR.shape[1], DL.shape[1]
    if L is R:   # one pass over the frame for the new rows and columns
        M = L.T @ _products(ops, DR)
        cols, rows = M[:, : 2 * d], M[:c, 2 * d :].T
    else:
        cols = L.T @ _products(ops[:2], DR)
        rows = (R[:, :c].T @ _products(ops[2:], DL)).T
    return (_extended(held[0], cols[:, :d], rows[:e]),
            _extended(held[1], cols[:, d:], rows[e:]))


def _paired(values):
    """Order a self-conjugate value set so conjugate partners are adjacent."""
    vals = list(values)
    out, used = [], [False] * len(vals)
    for i, v in enumerate(vals):
        if used[i]:
            continue
        used[i] = True
        if abs(v.imag) <= 1e-12 * (1.0 + abs(v)):
            out.append(complex(v.real, 0.0))
            continue
        best, bdist = None, np.inf
        for j in range(i + 1, len(vals)):
            if not used[j]:
                d = abs(vals[j] - v.conjugate())
                if d < bdist:
                    best, bdist = j, d
        if best is not None and bdist <= 1e-8 * (1.0 + abs(v)):
            used[best] = True
        # an unpaired complex Ritz value (roundoff) is kept with its mirror
        out.extend([v, v.conjugate()])
    return out


def _ritz_shifts(window):
    """Sanitized Ritz values of the window's held pencil, conjugate
    partners adjacent."""
    Ah, Eh = window.pencil()
    if Ah.shape[0] == 0:
        raise ZeroResidual("projection basis is zero")
    w, _, _ = small_eig(Ah, Eh)
    return [sanitize_shift(v) for v in _paired(w)]


def next_shifts_projection1(B_perp, sys):
    """Ritz values of the pencil projected by an orthonormal frame of the
    residual factor (one cap-0 window on it)."""
    window = _Window(sys, 0)
    window.observe(np.atleast_2d(np.asarray(B_perp, dtype=float)), B_perp)
    return _ritz_shifts(window)


def next_shifts_projection2(v_last, sys):
    """Ritz values of the pencil projected by an orthonormal frame of the
    last solve direction."""
    return next_shifts_projection1(np.real(v_last), sys)


def _rank_galerkin(Ah, Eh, Bh):
    """Dominant stable Ritz value of the projected pencil (Ah, Eh) with
    projected residual factor Bh, and its ranking (``next_shift_subspace``)."""
    w, _, Tl = small_eig(Ah, Eh)
    rn = np.linalg.norm(Tl @ Bh, axis=1)
    stable = w.real < 0
    if np.any(stable):
        w, rn = w[stable], rn[stable]
    ranking = rank_dominance(w, rn)
    return sanitize_shift(ranking.top()), ranking


def next_shift_subspace(history_V, perp, sys, feedback_gain=None):
    """Dominant pole of the deflated transfer map projected on a history.

    ``history_V`` must be orthonormal and ``perp`` is the residual factor
    of ``sys``'s right-hand side (on the W side: ``G2.dual()`` and n x p).
    The residues are the rows of the inverse eigenvector matrix applied to
    its projection.  ``feedback_gain`` deflates the projected dynamics by
    the current low-rank gain (A - K C), which steers the ranking toward the
    closed-loop spectrum a Riccati iteration converges against.

    Only Ritz values with ``Re < 0`` are ranked while at least one exists,
    and the returned ranking holds just those.  A Galerkin projection of a
    stable but non-normal pencil can have Ritz values in the closed right
    half-plane; they estimate no pole, yet the dominance score can put them
    first, and their mirrored shifts stall the iteration.  Only when every
    Ritz value is unstable is the top-ranked one mirrored.
    """
    V1 = history_V
    if V1.shape[1] == 0:
        raise ZeroResidual("empty history")
    return _rank_galerkin(*_projected_pencil(V1, sys, feedback_gain),
                          V1.T @ np.atleast_2d(perp))


def _rank_petrov(Ah, Eh, Bh, Ch, gram):
    """Two-sided ranking of the projected pencil (Ah, Eh) with projected
    factors Bh and Ch (``next_shift_petrov_bt``).  The singular-E test is
    scaled by ||E V||_2, the root of the top eigenvalue of ``gram``, the
    Gram matrix of E V."""
    try:
        sv = spla.svdvals(Eh)
        scale = max(np.sqrt(np.linalg.eigvalsh(gram).max(initial=0.0)), 1e-300)
        if sv.size == 0 or sv[-1] <= 1e-12 * scale:
            raise spla.LinAlgError("projected E numerically singular")
        if Eh.shape[0] == Eh.shape[1]:
            At = spla.solve(Eh, Ah)
            Bt = spla.solve(Eh, Bh)
        else:
            At = spla.lstsq(Eh, Ah)[0]
            Bt = spla.lstsq(Eh, Bh)[0]
        if not (np.all(np.isfinite(At)) and np.all(np.isfinite(Bt))):
            raise spla.LinAlgError("non-finite projected solve")
    except spla.LinAlgError as exc:
        logger.warning("projected E singular (%s); falling back to Galerkin", exc)
        raise SingularProjectedE(str(exc)) from exc
    w, T, Tl = small_eig(At)
    rb = np.linalg.norm(Tl @ Bt, axis=1)
    rc = np.linalg.norm(Ch @ T, axis=0)
    ranking = rank_dominance(w, np.sqrt(rb * rc))
    return sanitize_shift(ranking.top()), ranking


def next_shift_petrov_bt(history_V, history_W, B_perp, C_perp, sys):
    """Pole that is simultaneously most controllable and most observable.

    Two-sided projection with the residual factors of the two engine
    sides as they hold them: ``B_perp`` n x m, ``C_perp`` the n x p factor
    of ``sys.dual()``.  A singular projected E raises SingularProjectedE.
    """
    V1, W2 = history_V, history_W
    EV = sys.E @ V1
    return _rank_petrov(W2.T @ (sys.A @ V1), W2.T @ EV,
                        W2.T @ np.atleast_2d(B_perp),
                        np.atleast_2d(C_perp).T @ V1, EV.T @ EV)


class _Window:
    """One engine side as an oracle sees it: the side's system, a window
    onto the side's basis (a reference to it, no copy, from the restart
    column ``start``), and the residual factor and feedback gain it last
    observed.  The factor may be observed as a zero-argument reader,
    called when a ranking reads the factor (``factor``); the window keeps
    the reader, not what it returns.  Once the window would pass ``cap``
    columns it restarts at the newest block, the columns added since the
    previous observation.

    The window holds an orthonormal frame Q of its columns (``basis``) and
    the Galerkin pencil (Q^T A Q, Q^T E Q) on it; both grow by the
    columns observed since they last grew, when a ranking asks, and start
    over at a restart.  ``epoch`` counts the restarts, so that a two-sided
    oracle knows when its cross matrices went stale.  The window's n-row
    arrays are on the rows of its system (``observe``): an engine side's
    row frame and its system restricted to it."""

    def __init__(self, sys, cap):
        self.cap = cap
        self._use(sys)
        self.X, self.start = None, 0
        self.perp = self.gain = None
        self._buf, self.epoch = None, -1
        self._restart()

    def _restart(self):
        self.epoch += 1
        self._r = 0             # frame width
        self._seen = self.start  # basis columns that joined the frame
        self._colmax = 0.0      # largest column norm the window has held
        self._held = (np.empty((0, 0)),) * 2   # (Q^T A Q, Q^T E Q)

    def _use(self, sys):
        self.sys = sys
        # the pencil and its transpose, made once: a transposed view of a
        # sparse matrix is checked anew each time it is made
        self.ops = None if sys is None else (sys.A, sys.E, sys.A.T, sys.E.T)

    def observe(self, X, perp, gain=None, sys=None):
        """Look onto the basis X and the residual factor perp, an array or a
        zero-argument reader of one.  ``sys``, when given, is the system
        they are on (an engine side's system restricted to its row frame):
        once it is a new one, the frame Q gains zero rows where the new
        frame does, and the held pencils stay as they are, since Q is zero
        there."""
        if sys is not None and sys is not self.sys:
            if self._buf is not None:
                self._buf = sys.frame.lift(self._buf, self.sys.frame)
            self._use(sys)
        if self.X is not None and X.shape[1] - self.start > self.cap:
            self.start = self.X.shape[1]
            self._restart()
        self.X = X
        self.perp = perp if callable(perp) else np.asarray(perp)
        self.gain = gain

    def factor(self):
        """The residual factor observed, read now if a reader was."""
        return self.perp() if callable(self.perp) else self.perp

    @property
    def width(self):
        return 0 if self.X is None else self.X.shape[1] - self.start

    @property
    def basis(self):
        """The orthonormal frame Q of the window, grown by the columns
        observed since the last call.  The observed basis only grows: the
        columns the frame has taken in are not read again."""
        new = self.X[:, self._seen:]
        self._seen = self.X.shape[1]
        if new.shape[1]:
            self._grow(new)
        return self._buf[:, : self._r]

    def _grow(self, B):
        """Add the directions of the new columns B that the drop rule keeps
        to the frame, reallocating its buffer to cap + b columns when they
        do not fit."""
        n, b = B.shape
        r = self._r
        if self._buf is None or self._buf.shape[1] < r + b:
            buf = np.empty((n, self.cap + b), order="F")
            if r:
                buf[:, :r] = self._buf[:, :r]
            self._buf = buf
        Q = self._buf[:, :r]
        Y = np.array(B, dtype=float, order="F")
        self._colmax = max(self._colmax, np.linalg.norm(Y, axis=0).max())
        # block CGS2: project, orthonormalize, and again on the orthonormal
        # block; B's component off Q is then Y R
        R = np.eye(b)
        for _ in range(2 if r else 1):
            Y = dgemm(-1.0, Q, Q.T @ Y, 1.0, Y, overwrite_c=True)   # Y -= Q Q^T Y
            Y, Ri = spla.qr(Y, mode="economic", overwrite_a=True,
                            check_finite=False)
            R = Ri @ R
        U, s, _ = np.linalg.svd(R)
        keep = int(np.count_nonzero(
            s > np.finfo(float).eps * max(n, self.width) * self._colmax))
        np.matmul(Y, U[:, :keep], out=self._buf[:, r : r + keep])
        self._r = r + keep

    def pencil(self):
        """(Q^T A Q, Q^T E Q) on the frame, grown by the sparse products of
        its new directions."""
        Q = self.basis
        self._held = _fold(self._held, Q, Q, self.ops)
        return self._held

    def rank(self):
        """The unit of the Galerkin ranking on the window, against the
        factor read now (``factor``)."""
        Ah, Eh = self.pencil()
        Q = self.basis
        if Q.shape[1] == 0:
            raise ZeroResidual("empty history")
        if self.gain is not None:
            Ah = Ah - (Q.T @ self.gain) @ (self.sys.C @ Q)
        shift, _ = _rank_galerkin(Ah, Eh, Q.T @ self.factor())
        return ShiftUnit(shift)


class StaticShiftOracle:
    """Cycles a fixed unit list."""

    def __init__(self, shifts):
        self.units = as_units(shifts)
        if not self.units:
            raise ValueError("empty shift list")
        self._k = 0

    def observe(self, *_, **__):
        """A fixed list learns nothing from a step."""

    def next_unit(self):
        unit = self.units[self._k % len(self.units)]
        self._k += 1
        return unit


class ProjectionShiftOracle:
    """Projection-I (residual-factor basis) or Projection-II (the newest
    block of the observed basis: a window of cap 0)."""

    def __init__(self, sys, variant=1):
        if variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        self.variant = variant
        self.history = _Window(sys, 0)
        self._unit_queue = []

    def observe(self, X, perp, sys=None):
        self.history.observe(X, perp, sys=sys)

    def next_unit(self):
        h = self.history
        if h.perp is None:
            return ShiftUnit(INITIAL_SHIFT)
        if not self._unit_queue:
            if self.variant == 1:
                vals = next_shifts_projection1(h.factor(), h.sys)
            else:
                vals = _ritz_shifts(h)
            # one unit per conjugate pair
            units = [ShiftUnit(v) for v in vals if v.imag >= 0]
            self._unit_queue = units or [ShiftUnit(INITIAL_SHIFT)]
        return self._unit_queue.pop(0)


class SubspaceShiftOracle:
    """Subspace-accelerated Galerkin dominance ranking on one engine side.

    Each unit is the most dominant stable Ritz value of the pencil projected
    on the side's window (see ``next_shift_subspace``); right-half-plane
    Ritz values are ranked, and mirrored, only when no stable one exists.
    The W-side oracle is built on ``G2.dual()`` and observes the n x p
    factor.  ``observe`` takes the basis as the iteration holds it.
    """

    def __init__(self, sys, cap=DEFAULT_CAP):
        self.history = _Window(sys, cap)

    def observe(self, X, perp, feedback_gain=None, sys=None):
        self.history.observe(X, perp, feedback_gain, sys)

    def next_unit(self):
        if self.history.width == 0:
            return ShiftUnit(INITIAL_SHIFT)
        if not np.any(self.history.factor()):
            raise ZeroResidual("residual factor vanished")
        return self.history.rank()


class _TwoSidedOracle:
    """One window per engine side, each observing its side's basis and
    residual factor as the side holds them (n x m on V, n x p on W)."""

    def __init__(self, sys_v, sys_w, cap):
        self.hist_v = _Window(sys_v, cap)
        self.hist_w = _Window(sys_w, cap)

    def observe(self, V, W, v_perp, w_perp, systems=(None, None)):
        self.hist_v.observe(V, v_perp, sys=systems[0])
        self.hist_w.observe(W, w_perp, sys=systems[1])


class PetrovBtShiftOracle(_TwoSidedOracle):
    """Two-sided dominance ranking on one system; emits alpha = beta units.
    A singular projected E falls back to the V side's Galerkin ranking.  The
    W window never ranks on its own, so it holds no system until one is
    observed with it (the engine's, for its row frame)."""

    def __init__(self, sys, cap=DEFAULT_CAP):
        super().__init__(sys, None, cap)
        self._epochs = self._held = None

    def _cross(self, V, W):
        """(W^T A V, W^T E V, (E V)^T E V) on the two frames, grown by the
        sparse products of their new directions; rebuilt after a restart of
        either window."""
        v, w = self.hist_v, self.hist_w
        if self._epochs != (v.epoch, w.epoch):
            self._epochs = (v.epoch, w.epoch)
            self._held = (np.empty((0, 0)),) * 3
        Ah, Eh, G = self._held
        c = G.shape[0]
        if c < V.shape[1]:
            _, E, _, Et = v.ops
            g = V.T @ (Et @ (E @ np.ascontiguousarray(V[:, c:])))
            G = _extended(G, g, g[:c].T)
        Ah, Eh = _fold((Ah, Eh), W, V, v.ops)
        self._held = Ah, Eh, G
        return self._held

    def next_unit(self):
        v, w = self.hist_v, self.hist_w
        if v.width == 0 or w.width == 0:
            return ShiftUnit(INITIAL_SHIFT)
        vp, wp = v.factor(), w.factor()
        if not (np.any(vp) or np.any(wp)):
            raise ZeroResidual("both residual factors vanished")
        V, W = v.basis, w.basis
        Ah, Eh, G = self._cross(V, W)
        try:
            shift, _ = _rank_petrov(Ah, Eh, W.T @ vp, wp.T @ V, G)
        except SingularProjectedE:
            return v.rank()
        return ShiftUnit(shift)


class SylvesterAlternatingOracle(_TwoSidedOracle):
    """Alternates most-controllable / most-observable poles, alpha = beta.

    Rankings alternate between the V window (``sys1`` = G1 with the
    Sylvester B-residual), first, and the W window (``sys2`` = G2.dual()
    with the n x p Sylvester C-residual), both with the same Galerkin
    ranking; ``last_projected`` names the side ranked last.  Only the
    ranked window's factor is read: observed as a reader, the other side's
    is not formed for it.
    """

    def __init__(self, sys1, sys2, cap=DEFAULT_CAP):
        super().__init__(sys1, sys2, cap)
        self.last_projected = "none"

    def next_unit(self):
        if self.hist_v.width == 0 and self.hist_w.width == 0:
            return ShiftUnit(INITIAL_SHIFT)
        if self.last_projected == "sys1":
            self.last_projected, window = "sys2", self.hist_w
        else:
            self.last_projected, window = "sys1", self.hist_v
        return window.rank()
