"""State-space system container, file I/O, built-in generators.

Systems are sparse-pencil (E, A) with dense input/output maps (B, C, D),
immutable after construction.  File interchange uses a one-file manifest of
``key=value`` lines pointing at coordinate-format files for E, A and
array-format files for B, C, D.
"""

from pathlib import Path

import numpy as np
import scipy.sparse as sps

from .errors import (
    DimensionMismatch,
    InvalidSize,
    MissingMatrix,
    ParseError,
    SingularE,
    SingularShiftedMatrix,
)
from .linalg import RowFrame, ShiftedFactorization, solve_small_lyapunov

__all__ = [
    "StateSpaceSystem",
    "EquationParams",
    "load_system",
    "save_system",
    "penzl_triple_peak",
    "illustrative_pair",
    "rlc_ladder",
    "transfer_eval",
]


class StateSpaceSystem:
    """Realization (E, A, B, C, D) of G(s) = C (sE - A)^{-1} B + D.

    ``frame`` is the RowFrame of the states it holds: those of a larger
    realization it was restricted from (``restricted``), or all its own.
    """

    def __init__(self, E, A, B, C, D=None, label="", check_E=True):
        A = A.tocsc() if sps.issparse(A) else sps.csc_matrix(np.atleast_2d(A))
        E = E.tocsc() if sps.issparse(E) else sps.csc_matrix(np.atleast_2d(E))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n) or E.shape != (n, n):
            raise DimensionMismatch("A and E must be square and equal-sized")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C has {C.shape[1]} cols, expected {n}")
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        D = np.atleast_2d(np.asarray(D, dtype=float))
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionMismatch(
                f"D has shape {D.shape}, expected {(C.shape[0], B.shape[1])}"
            )
        if check_E:
            try:
                ShiftedFactorization(E, sps.csc_matrix((n, n)), 0.0)
            except SingularShiftedMatrix as exc:
                raise SingularE(f"E is singular: {exc}") from exc
        self.E, self.A, self.B, self.C, self.D = E, A, B, C, D
        self.label = label
        self.frame = RowFrame(n)   # the rows of the realization it restricts

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    def dual(self):
        """Transposed realization (E^T, A^T, C^T, B^T, D^T), on the same
        states (``frame``)."""
        out = StateSpaceSystem(
            self.E.T, self.A.T, self.C.T, self.B.T, self.D.T,
            label=self.label + ".dual", check_E=False,
        )
        out.frame = self.frame
        return out

    def restricted(self, frame):
        """This realization on the states of a RowFrame of the split of its
        own (A, E) (``FactorizationCache.frame``): E and A on the frame's
        rows and columns (``RowFrame.pencil``, which asserts that they
        couple the frame to other rows only through its edge), B on its
        rows, C on its columns.  B must vanish off the frame.  The full
        frame gives the realization itself."""
        if frame.full:
            return self
        B = frame.gather(self.B)
        assert np.count_nonzero(B) == np.count_nonzero(self.B), "B off the frame"
        A, E = frame.pencil
        out = StateSpaceSystem(E, A, B, frame.gather(self.C.T).T, self.D,
                               label=self.label, check_E=False)
        out.frame = frame
        return out

    def same_realization(self, other):
        return other is self or (
            self.n == other.n
            and self.m == other.m
            and self.p == other.p
            and (self.A != other.A).nnz == 0
            and (self.E != other.E).nnz == 0
            and np.array_equal(self.B, other.B)
            and np.array_equal(self.C, other.C)
            and np.array_equal(self.D, other.D)
        )

    def __repr__(self):
        return (
            f"StateSpaceSystem(n={self.n}, m={self.m}, p={self.p},"
            f" label={self.label!r})"
        )


class EquationParams:
    """Weights of the indefinite-Gramian and bounded-gain equations.

    S1 (m1 x m1) and S2 (p2 x p2) weight the indefinite Lyapunov pair;
    gamma1, gamma2 > 0 enter the bounded-gain Riccati pair through the
    coefficient (1 - gamma^-2).  gamma = 1 degenerates to the plain
    Lyapunov equations and gamma < 1 flips the quadratic term's sign.
    """

    def __init__(self, S1=None, S2=None, gamma1=2.0, gamma2=2.0):
        if gamma1 <= 0 or gamma2 <= 0:
            raise ParseError("gamma1 and gamma2 must be positive")
        self.S1 = None if S1 is None else np.atleast_2d(np.asarray(S1, dtype=float))
        self.S2 = None if S2 is None else np.atleast_2d(np.asarray(S2, dtype=float))
        for name, S in (("S1", self.S1), ("S2", self.S2)):
            if S is not None and S.shape[0] != S.shape[1]:
                raise DimensionMismatch(f"{name} must be square")
        self.gamma1 = float(gamma1)
        self.gamma2 = float(gamma2)

    def resolved(self, sys1, sys2):
        """Return (S1, S2) with identity defaults of the right sizes."""
        S1 = np.eye(sys1.m) if self.S1 is None else self.S1
        S2 = np.eye(sys2.p) if self.S2 is None else self.S2
        if S1.shape != (sys1.m, sys1.m):
            raise DimensionMismatch(f"S1 must be {sys1.m} x {sys1.m}")
        if S2.shape != (sys2.p, sys2.p):
            raise DimensionMismatch(f"S2 must be {sys2.p} x {sys2.p}")
        return S1, S2


# ---------------------------------------------------------------------------
# file formats


def _write_coord(path, M):
    M = M.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]} {M.nnz}\n")
        for i, j, v in zip(M.row, M.col, M.data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def _read_coord(path):
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise ParseError(f"{path}: coordinate header must be 'rows cols nnz'")
            rows, cols, nnz = (int(t) for t in header)
            I, J, V = [], [], []
            for k in range(nnz):
                parts = fh.readline().split()
                if len(parts) != 3:
                    raise ParseError(f"{path}: bad triple on entry {k + 1}")
                I.append(int(parts[0]) - 1)
                J.append(int(parts[1]) - 1)
                V.append(float(parts[2]))
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if I and (min(I) < 0 or max(I) >= rows or min(J) < 0 or max(J) >= cols):
        raise ParseError(f"{path}: index out of range")
    return sps.coo_matrix((V, (I, J)), shape=(rows, cols)).tocsc()


def _write_array(path, M):
    M = np.atleast_2d(np.asarray(M))
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for v in M.flatten(order="F"):
            fh.write(f"{v:.17g}\n")


def _read_array(path):
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ParseError(f"{path}: array header must be 'rows cols'")
            rows, cols = (int(t) for t in header)
            vals = [float(fh.readline()) for _ in range(rows * cols)]
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return np.array(vals).reshape((rows, cols), order="F")


def save_system(sys, directory, name="system"):
    """Write a system as manifest + matrix files; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {
        "E": f"{name}_E.coord",
        "A": f"{name}_A.coord",
        "B": f"{name}_B.array",
        "C": f"{name}_C.array",
        "D": f"{name}_D.array",
    }
    _write_coord(directory / files["E"], sys.E)
    _write_coord(directory / files["A"], sys.A)
    _write_array(directory / files["B"], sys.B)
    _write_array(directory / files["C"], sys.C)
    _write_array(directory / files["D"], sys.D)
    manifest = directory / f"{name}.manifest"
    with open(manifest, "w") as fh:
        for key, fname in files.items():
            fh.write(f"{key}={fname}\n")
        fh.write(f"label={sys.label or name}\n")
    return manifest


def load_system(path):
    """Assemble a validated system from a manifest (or its directory)."""
    path = Path(path)
    if path.is_dir():
        candidates = sorted(path.glob("*.manifest"))
        if not candidates:
            raise MissingMatrix(f"no .manifest file in {path}")
        path = candidates[0]
    if not path.exists():
        raise MissingMatrix(f"manifest {path} does not exist")
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    base = path.parent
    for key in ("E", "A", "B", "C"):
        if key not in entries:
            raise MissingMatrix(f"{path}: manifest lacks {key}=")
    E = _read_coord(base / entries["E"])
    A = _read_coord(base / entries["A"])
    B = _read_array(base / entries["B"])
    C = _read_array(base / entries["C"])
    D = _read_array(base / entries["D"]) if "D" in entries else None
    return StateSpaceSystem(E, A, B, C, D, label=entries.get("label", path.stem))


# ---------------------------------------------------------------------------
# generators


def penzl_triple_peak(n, w1, w2, w3):
    """Sparse order-n system with frequency-response peaks at w1, w2, w3.

    A 6x6 head is built from three 2x2 blocks [[-1, w], [-w, -1]] and made
    non-identity in E by congruence with the head Gramians; the tail is the
    diagonal chain (I, -diag(1..n-6), ones, ones).  The head pencil keeps
    eigenvalues {-1 +/- j w_k}; the tail contributes the real poles
    -1..-(n-6), far less controllable/observable by construction.
    """
    if n < 8:
        raise InvalidSize(f"n must be >= 8, got {n}")
    if min(w1, w2, w3) <= 0:
        raise InvalidSize("peak frequencies must be positive")
    blocks = [np.array([[-1.0, w], [-w, -1.0]]) for w in (w1, w2, w3)]
    aa = np.zeros((6, 6))
    for k, blk in enumerate(blocks):
        aa[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blk
    bb = 10.0 * np.ones((6, 1))
    cc = 10.0 * np.ones((1, 6))
    # pp solves aa X + X aa^T + bb bb^T = 0, qq solves aa^T X + X aa + cc^T cc = 0
    pp = solve_small_lyapunov(aa.T, bb @ bb.T)
    qq = solve_small_lyapunov(aa, cc.T @ cc)
    e_head = qq @ pp
    a_head = qq @ aa @ pp
    b_head = qq @ bb
    c_head = cc @ pp
    nt = n - 6
    E = sps.block_diag(
        [sps.csc_matrix(e_head), sps.eye(nt, format="csc")], format="csc"
    )
    A = sps.block_diag(
        [sps.csc_matrix(a_head), sps.diags(-np.arange(1.0, nt + 1.0), format="csc")],
        format="csc",
    )
    B = np.vstack([b_head, np.ones((nt, 1))])
    C = np.hstack([c_head, np.ones((1, nt))])
    return StateSpaceSystem(E, A, B, C, None, label=f"triple_peak({n},{w1},{w2},{w3})")


_ILLUSTRATIVE_E = np.array([
    [0.2498, 0.0, 0.0002, 0.0, 0.0001, 0.0],
    [0.0, 0.2498, 0.0, 0.0002, 0.0, 0.0001],
    [0.0002, 0.0, 0.2499, 0.0001, 0.0, 0.0],
    [0.0, 0.0002, 0.0001, 0.2499, 0.0, 0.0],
    [0.0001, 0.0, 0.0, 0.0, 0.2500, 0.0],
    [0.0, 0.0001, 0.0, 0.0, 0.0, 0.2500],
])

_ILLUSTRATIVE_A = np.array([
    [-0.2508, 24.4816, -0.5095, -0.4723, -0.5112, -0.4814],
    [-25.4822, -0.2508, -0.5283, -0.4908, -0.5188, -0.4888],
    [-0.4908, -0.4723, -0.2497, 49.4833, -0.5046, -0.4861],
    [-0.5283, -0.5095, -50.4837, -0.2497, -0.5141, -0.4952],
    [-0.4888, -0.4814, -0.4952, -0.4861, -0.2499, 99.4954],
    [-0.5188, -0.5112, -0.5141, -0.5046, -100.4955, -0.2499],
])

_ILLUSTRATIVE_B1 = np.array([[0.5025, 0.4965, -0.0051, 0.0035, 0.0133, -0.0116]]).T
_ILLUSTRATIVE_C1 = np.array([[0.4965, 0.5025, 0.0035, -0.0051, -0.0116, 0.0133]])
_ILLUSTRATIVE_B2 = np.array([[-0.0029, 0.0042, 0.0118, -0.0129, 0.4866, 0.5131]]).T
_ILLUSTRATIVE_C2 = np.array([[0.0042, -0.0029, -0.0129, 0.0118, 0.5131, 0.4866]])


def illustrative_pair():
    """Two 6th-order SISO systems with identical poles near -1 +/- j{100,200,400}.

    G1 peaks at 100 rad/s, G2 at 400 rad/s; constants are embedded at the
    4-decimal precision they are published with.
    """
    g1 = StateSpaceSystem(
        _ILLUSTRATIVE_E, _ILLUSTRATIVE_A, _ILLUSTRATIVE_B1, _ILLUSTRATIVE_C1,
        label="illustrative_G1",
    )
    g2 = StateSpaceSystem(
        _ILLUSTRATIVE_E, _ILLUSTRATIVE_A, _ILLUSTRATIVE_B2, _ILLUSTRATIVE_C2,
        label="illustrative_G2",
    )
    return g1, g2


def rlc_ladder(segments=400, feedthrough=0.25):
    """Passive two-port RLC ladder network, order 4*segments.

    Two series-L / shunt-C ladders (one per port) in admittance form with a
    small resistive feedthrough D = feedthrough * I.  The realization is
    stable, square, minimum-phase, positive-real and bounded-real, so every
    supported matrix equation is well defined on it.
    """
    if segments < 1:
        raise InvalidSize(f"segments must be >= 1, got {segments}")
    # per-ladder component values (series R-L branch, shunt C with leak R)
    params = [
        dict(R=0.1, L=0.1, C=0.1, Rleak=1.0),
        dict(R=0.5, L=0.2, C=0.2, Rleak=3.0),
    ]
    blocks_E, blocks_A, cols_B, rows_C = [], [], [], []
    for prm in params:
        ns = 2 * segments
        R, L, Cap, Rl = prm["R"], prm["L"], prm["C"], prm["Rleak"]
        # states x = [i_1, v_1, i_2, v_2, ...]: L i_k' = v_{k-1} - v_k - R i_k,
        # C v_k' = i_k - i_{k+1} - v_k / Rleak, with v_0 the input voltage.
        E = sps.diags(np.tile([L, Cap], segments), format="csc")
        ii = np.arange(0, ns, 2)  # current states
        iv = ii + 1               # voltage states
        one = np.ones(segments)
        rows = np.concatenate([ii, ii, ii[1:], iv, iv, iv[:-1]])
        cols = np.concatenate([ii, iv, iv[:-1], ii, iv, ii[1:]])
        vals = np.concatenate([-R * one, -one, one[1:], one,
                               -1.0 / Rl * one, -one[1:]])
        A = sps.coo_matrix((vals, (rows, cols)), shape=(ns, ns)).tocsc()
        b = np.zeros((ns, 1))
        b[0, 0] = 1.0
        c = np.zeros((1, ns))
        # port current, scaled for these component sets so the H-infinity
        # norm stays below one (bounded-real margin)
        c[0, 0] = 0.12
        blocks_E.append(E)
        blocks_A.append(A)
        cols_B.append(b)
        rows_C.append(c)
    E = sps.block_diag(blocks_E, format="csc")
    A = sps.block_diag(blocks_A, format="csc")
    n = E.shape[0]
    B = np.zeros((n, 2))
    C = np.zeros((2, n))
    B[: n // 2, 0:1] = cols_B[0]
    B[n // 2 :, 1:2] = cols_B[1]
    C[0:1, : n // 2] = rows_C[0]
    C[1:2, n // 2 :] = rows_C[1]
    D = feedthrough * np.eye(2)
    return StateSpaceSystem(E, A, B, C, D, label=f"rlc_ladder({segments})")


def random_stable_system(n, m, p, seed):
    """Dense random system with a stable pencil, for tests and benchmarks.

    The pencil is built as (E, E A0) with A0 shifted into the open left
    half-plane, its rightmost pole at -0.8, so eig(E^{-1} A) = eig(A0) is
    stable by construction.
    """
    import scipy.linalg as spla

    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((n, n))
    A0 -= (np.max(spla.eigvals(A0).real) + 0.8) * np.eye(n)
    E = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    return StateSpaceSystem(
        E, E @ A0, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
        label=f"random({n},{m},{p};seed={seed})",
    )


def transfer_eval(sys, s):
    """Evaluate C (sE - A)^{-1} B + D at one complex point."""
    s = complex(s)
    # (sE - A) X = B  <=>  (A + (-s) E) X = -B
    X = ShiftedFactorization(sys.A, sys.E, -s).solve(-sys.B)
    return sys.C @ X + sys.D
