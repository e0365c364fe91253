import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps

from uadi.errors import (
    DimensionMismatch,
    EigFailure,
    NonHermitianRHS,
    SingularE,
    SingularShiftedMatrix,
    SpectraOverlap,
)
from uadi.linalg import (
    FactorizationCache,
    ShiftedFactorization,
    gram_norm2,
    schur_form,
    shifted_solve,
    small_eig,
    small_inverse,
    solve_placed_sylvester,
    solve_small_lyapunov,
    solve_small_sylvester,
)
from uadi.realify import ShiftUnit, lyap_sl
from uadi.systems import StateSpaceSystem, penzl_triple_peak, rlc_ladder

from conftest import assert_multiset_close, count_shifted, whole_band, whole_band_solve


class TestShiftedSolve:
    def test_scalar(self):
        x = shifted_solve(np.array([[-1.0]]), np.array([[1.0]]), -1.0, [[1.0]])
        assert x[0, 0] == pytest.approx(-0.5)

    def test_singular_shift(self):
        with pytest.raises(SingularShiftedMatrix):
            shifted_solve(np.array([[-2.0]]), np.array([[1.0]]), 2.0, [[4.0]])
        # exactly singular pencils A + 0*E, and a 1x1 pencil whose sum
        # cancels to an empty column, fail when they are factored
        singular = {
            "zero column": np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 4.0], [5.0, 0.0, 6.0]]),
            "rank one": np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
            "singular 3x3": np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]),
            "zero diagonal entry": np.diag([1.0, 0.0, 2.0]),
            "zero decoupled pivot beside a regular core":
                np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 0.0]]),
        }
        for name, A in singular.items():
            with pytest.raises(SingularShiftedMatrix):
                ShiftedFactorization(A, np.eye(3), 0.0)
            with pytest.raises(SingularE):
                StateSpaceSystem(A, -np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        # third row the sum of the first two: elimination leaves a roundoff
        # pivot (2.2e-16), not a zero, so the solves report it
        roundoff = ShiftedFactorization(
            np.array([[2.0, 1.0, 1.0], [1.0, 3.0, 4.0], [3.0, 4.0, 5.0]]), np.eye(3), 0.0)
        for trans in ("N", "T"):
            with pytest.raises(SingularShiftedMatrix):
                roundoff.solve(np.eye(3)[:, :1], trans=trans)
        with pytest.raises(SingularShiftedMatrix):
            ShiftedFactorization(sps.csc_matrix([[-2.0]]), sps.csc_matrix([[1.0]]), 2.0)
        E = np.eye(3)
        E[1, 2] = np.nan
        with pytest.raises(SingularShiftedMatrix):
            ShiftedFactorization(-np.eye(3), E, -1.0)
        with pytest.raises(SingularE):
            StateSpaceSystem(E, -np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        for bad in (np.nan, np.inf):   # a decoupled state beside a regular core
            A = np.array([[-1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, bad]])
            with pytest.raises(SingularShiftedMatrix, match="non-finite"):
                ShiftedFactorization(A, np.eye(3), -1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            shifted_solve(np.eye(3), np.eye(2), -1.0, np.ones((3, 1)))
        with pytest.raises(DimensionMismatch):
            shifted_solve(-np.eye(3), np.eye(3), -1.0, np.ones((2, 1)))

    @staticmethod
    def _stencil(side=40):
        """5-point Laplacian pencil on a side x side grid with a non-identity
        diagonal E: 2-D fill, so its LU has supernodes of several columns."""
        T = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        I = sps.identity(side)
        A = -(sps.kron(I, T) + sps.kron(T, I))
        E = sps.diags(1.0 + 0.5 * np.random.default_rng(9).random(side * side))
        return A.tocsc(), E.tocsc()

    def test_random_sparse_residual(self, rng):
        """Plain and transposed solves on general sparse pencils: a random
        one and a fill-heavy stencil."""
        n = 50
        A = sps.random(n, n, density=0.2, random_state=7).tocsc()
        A = A - sps.eye(n) * (abs(A).sum() / n + 1.0)
        E = sps.eye(n, format="csc") + 0.01 * sps.random(n, n, density=0.1, random_state=8)
        penzl = penzl_triple_peak(200, 10, 20, 30)
        for A, E in ((A, E), self._stencil(), (penzl.A, penzl.E)):
            rhs = rng.standard_normal((A.shape[0], 2))
            tcache = FactorizationCache(A, E).transposed()
            for shift in (-0.3, -1.0 + 2.0j):
                for X, M in ((shifted_solve(A, E, shift, rhs), A + shift * E),
                             (tcache.solve(shift, rhs), (A + shift * E).T)):
                    res = M @ X - rhs
                    assert np.linalg.norm(res) / np.linalg.norm(rhs) <= 1e-10

    def test_vector_rhs(self, rng):
        """A 1-D right-hand side is one column and gives a 1-D result."""
        A, E = self._stencil(side=10)
        b = rng.standard_normal(A.shape[0])
        fac = ShiftedFactorization(A, E, -1.0 + 2.0j)
        for trans in ("N", "T"):
            x = fac.solve(b, trans=trans)
            assert x.shape == b.shape
            np.testing.assert_array_equal(x, fac.solve(b[:, None], trans=trans)[:, 0])
        x = shifted_solve(A, E, -0.5, b)
        assert x.shape == b.shape
        assert np.linalg.norm((A - 0.5 * E) @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_split_matches_whole_lu(self, rng):
        """penzl's pencil has a 6 x 6 coupled head and 194 decoupled
        states: SuperLU factors the head alone, and the solves match a
        whole-matrix LU, plain and transposed, at a real and a complex
        shift, with real and complex right-hand sides."""
        from scipy.sparse.linalg import splu

        g = penzl_triple_peak(200, 10, 20, 30)
        rhs = rng.standard_normal((g.n, 2))
        for shift in (-1.5, -1.0 + 20.0j):
            fac = ShiftedFactorization(g.A, g.E, shift)
            assert fac._lu.shape == (6, 6)
            M = (g.A + shift * g.E).astype(complex).tocsc()
            ref = splu(M, panel_size=1)
            for b in (rhs, rhs + 1j * rng.standard_normal(rhs.shape)):
                for trans in ("N", "T"):
                    x = fac.solve(b, trans=trans)
                    want = ref.solve(b.astype(complex), trans=trans)
                    assert np.linalg.norm(x - want) <= 1e-14 * np.linalg.norm(want)

    def test_decoupled_rows_by_one_division(self, rng):
        """A solve divides the whole right-hand side by the n-vector of
        pivots and overwrites the core rows: each decoupled row is exactly
        r_i / (a_ii + shift*e_ii) and the core rows exactly the core LU's
        solve, plain and transposed, at a real and a complex shift, and with
        a complex right-hand side against a real LU."""
        from scipy.sparse.linalg import splu

        g = penzl_triple_peak(200, 10, 20, 30)
        fac0 = ShiftedFactorization(g.A, g.E, -1.5)
        core, dec = fac0._split.core, fac0._split.dec
        assert len(core) == 6 and len(dec) == 194
        a, e = g.A.diagonal(), g.E.diagonal()
        rhs = rng.standard_normal((g.n, 2)) + 1j * rng.standard_normal((g.n, 2))
        for shift in (-1.5, -1.0 + 20.0j):
            fac = ShiftedFactorization(g.A, g.E, shift)
            s = shift.real if complex(shift).imag == 0 else shift
            assert fac._d.shape == (g.n,) and set(fac._d[core]) <= set(fac._d[dec])
            head = (g.A + s * g.E).tocsc()[core][:, core]
            ref = splu(head.tocsc(), panel_size=1)
            for b in (rhs.real.copy(), rhs):
                for trans in ("N", "T"):
                    x = fac.solve(b, trans=trans)
                    np.testing.assert_array_equal(x[dec], b[dec] / (a + s * e)[dec, None])
                    bc = b[core]
                    if np.iscomplexobj(bc) and ref.U.dtype.kind != "c":
                        want = (ref.solve(bc.real.copy(), trans=trans)
                                + 1j * ref.solve(bc.imag.copy(), trans=trans))
                        assert np.abs(x[core] - want).max() <= 1e-14 * np.abs(want).max()
                    else:
                        np.testing.assert_array_equal(
                            x[core], ref.solve(bc.astype(ref.U.dtype), trans=trans))

    def test_all_decoupled_makes_no_lu(self, monkeypatch, rng):
        """A diagonal pencil, such as the check of a diagonal E, is solved
        by division with no SuperLU call."""
        import uadi.linalg as linalg

        calls, splu = [], linalg.splu
        monkeypatch.setattr(linalg, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        rlc_ladder(segments=50)   # its E check
        d = -1.0 - rng.random(20)
        rhs = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        x = ShiftedFactorization(sps.diags(d), sps.eye(20), -1.0 + 2.0j).solve(rhs, trans="T")
        np.testing.assert_allclose(x, rhs / (d + (-1.0 + 2.0j))[:, None], rtol=1e-15)
        assert calls == []
        penzl_triple_peak(200, 10, 20, 30)   # its E check factors the head alone
        assert calls == [1]

    def test_fully_coupled_pencil_is_factored_whole(self, rng):
        """A pencil with no decoupled state is handed to SuperLU whole, as
        splu(A + shift*E, panel_size=1), and gives that call's bits."""
        from scipy.sparse.linalg import splu

        A, E = self._stencil(side=12)
        rhs = rng.standard_normal((A.shape[0], 3))
        for shift in (-0.3, -1.0 + 2.0j):
            fac = ShiftedFactorization(A, E, shift)
            ref = splu((A + shift * E).tocsc(), panel_size=1)
            for trans in ("N", "T"):
                np.testing.assert_array_equal(fac.solve(rhs, trans=trans),
                                              ref.solve(rhs.astype(ref.U.dtype), trans=trans))

    def test_cache_reuses_factorizations(self):
        A = sps.csc_matrix(-np.eye(4))
        E = sps.eye(4, format="csc")
        cache = FactorizationCache(A, E)
        cache.solve(-1.0, np.ones((4, 1)))
        cache.solve(-1.0, np.ones((4, 2)))
        cache.solve(-2.0, np.ones((4, 1)))
        assert cache.factor_count == 2


class TestFactorizationCacheBound:
    """The cache keeps the LU used last plus the declared recurring ones;
    a transposed cache borrows its parent's LUs."""

    def _pencil(self, n=30):
        A = sps.random(n, n, density=0.2, random_state=3).tocsc()
        A = A - sps.eye(n) * (abs(A).sum() / n + 1.0)
        E = sps.eye(n, format="csc") + 0.01 * sps.random(n, n, density=0.1, random_state=4)
        return A.tocsc(), E.tocsc()

    def test_keeps_last_and_recurring(self):
        A, E = self._pencil()
        cache = FactorizationCache(A, E)
        cache.declare_recurring([-1.0, -2 + 3j])
        rhs = np.ones((A.shape[0], 1))
        for shift in (-1.0, -0.3, -2 + 3j, -0.4, -0.5):
            cache.solve(shift, rhs)
        assert len(cache) == 3   # -1, -2+3j and the last one, -0.5
        for shift in (-0.5, -1.0, -2 + 3j):
            cache.solve(shift, rhs)
        assert cache.factor_count == 5 and len(cache) == 2
        cache.solve(-0.3, rhs)   # dropped earlier: factored again
        assert cache.factor_count == 6 and len(cache) == 3

    def test_transposed_borrows_and_matches_separate_lu(self, rng):
        """Also on penzl's pencil, whose split the transposed cache borrows."""
        penzl = penzl_triple_peak(200, 10, 20, 30)
        for A, E in (self._pencil(), (penzl.A, penzl.E)):
            cache = FactorizationCache(A, E)
            tcache = cache.transposed()
            assert tcache._split is cache._split
            rhs = rng.standard_normal((A.shape[0], 2))
            for shift in (-0.7, -1.0 + 2.0j):
                cache.solve(shift, rhs)
                x = tcache.solve(shift, rhs)
                ref = shifted_solve(A.T.tocsc(), E.T.tocsc(), shift, rhs)
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            assert cache.factor_count == 2 and tcache.factor_count == 0
            x = tcache.solve(-3.0, rhs)   # not held by the parent: factored here
            res = (A.T + (-3.0) * E.T) @ x - rhs
            assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)
            assert cache.factor_count == 2 and tcache.factor_count == 1
            assert tcache.get(-3.0)._split is cache._split   # its own LU, the shared split

    def test_real_shift_is_factored_real(self, rng):
        """A real shift, also when given as a complex number, has a float64
        LU; a complex right-hand side is solved as its real and imaginary
        parts and matches the complex LU's solution."""
        from scipy.sparse.linalg import splu

        A, E = self._pencil()
        cache = FactorizationCache(A, E)
        assert cache.get(complex(-1.5))._lu.U.dtype == np.float64
        assert cache.get(-1.5 + 2j)._lu.U.dtype == np.complex128
        n = A.shape[0]
        rhs = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        ref_lu = splu((A - 1.5 * E).astype(complex).tocsc())
        for c, trans in ((cache, "N"), (cache.transposed(), "T")):
            x = c.solve(-1.5, rhs)
            ref = ref_lu.solve(rhs, trans=trans)
            assert x.dtype == np.complex128
            assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)


class TestTridiagonalCore:
    """A core whose stored entries all lie within one diagonal of the main
    one, such as the RLC ladders, is factored by LAPACK gttrf and solved by
    gttrs; every other core keeps SuperLU."""

    @staticmethod
    def _splu_shapes(monkeypatch):
        import uadi.linalg as linalg

        shapes, splu = [], linalg.splu
        monkeypatch.setattr(linalg, "splu",
                            lambda M, **k: shapes.append(M.shape) or splu(M, **k))
        return shapes

    def test_matches_dense_solve(self, monkeypatch, rng):
        """On rlc_ladder(50), at a real and a complex shift: plain and
        transposed solves, one-off and through a cache and its transposed
        borrow, of real, complex and 1-D right-hand sides, agree with a
        dense solve, and no SuperLU LU is made."""
        g = rlc_ladder(50)
        shapes = self._splu_shapes(monkeypatch)
        rhss = (rng.standard_normal((g.n, 3)),
                rng.standard_normal((g.n, 3)) + 1j * rng.standard_normal((g.n, 3)),
                rng.standard_normal(g.n))
        cache = FactorizationCache(g.A, g.E)
        tcache = cache.transposed()
        assert cache._split.bands is not None
        for shift in (-1.867, -1.0 + 20.0j):
            M = (g.A + shift * g.E).toarray()
            fac = ShiftedFactorization(g.A, g.E, shift)
            assert fac._band is not None and fac._lu is None
            for b in rhss:
                for trans, x in (("N", fac.solve(b)), ("T", fac.solve(b, trans="T")),
                                 ("N", cache.solve(shift, b)),
                                 ("T", tcache.solve(shift, b))):
                    want = np.linalg.solve(M if trans == "N" else M.T, b)
                    assert x.shape == b.shape
                    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert cache.factor_count == 2 and tcache.factor_count == 0
        assert shapes == []

    def test_other_cores_keep_superlu(self, monkeypatch):
        """penzl's dense 6 x 6 head, a dense random pencil, a 2-state
        tridiagonal core (too small for gttrf) and rlc_ladder(50)'s
        tridiagonal pencil beside a decoupled state are factored by
        SuperLU, the last one agreeing with a dense solve."""
        from uadi.systems import random_stable_system

        penzl, dense = penzl_triple_peak(200, 10, 20, 30), random_stable_system(8, 2, 2, 0)
        two = sps.csc_matrix([[-1.0, 0.5, 0.0], [0.5, -2.0, 0.0], [0.0, 0.0, -3.0]])
        g = rlc_ladder(50)
        beside = (sps.block_diag([g.A, [[-3.0]]], format="csc"),
                  sps.block_diag([g.E, [[2.0]]], format="csc"))
        b = np.random.default_rng(3).standard_normal((g.n + 1, 2))
        shapes = self._splu_shapes(monkeypatch)
        for A, E in ((penzl.A, penzl.E), (dense.A, dense.E), (two, sps.eye(3)), beside):
            for shift in (-1.5, -1.0 + 2.0j):
                fac = ShiftedFactorization(A, E, shift)
                assert fac._band is None and fac._lu is not None
        for shift in (-1.867, -1.0 + 20.0j):
            M = (beside[0] + shift * beside[1]).toarray()
            for trans in "NT":
                x = FactorizationCache(*beside).get(shift).solve(b, trans=trans)
                want = np.linalg.solve(M if trans == "N" else M.T, b)
                assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert shapes == [(6, 6)] * 2 + [(8, 8)] * 2 + [(2, 2)] * 2 + [(200, 200)] * 6

    def test_zero_pivot_and_non_finite_band_raise(self):
        """An exact zero gttrf pivot (a zero column) and a non-finite band
        entry raise SingularShiftedMatrix when the pencil is factored."""
        from uadi.linalg import _PencilSplit

        zero_column = sps.csc_matrix([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert _PencilSplit(zero_column, sps.eye(3, format="csc")).bands is not None
        with pytest.raises(SingularShiftedMatrix, match="zero pivot"):
            ShiftedFactorization(zero_column, sps.eye(3), 0.0)
        A = sps.diags([1.0, -4.0, 1.0], [-1, 0, 1], shape=(4, 4), format="csc")
        for bad in (np.nan, np.inf):
            E = sps.eye(4, format="lil")
            E[1, 2] = bad
            E = E.tocsc()
            assert _PencilSplit(A, E).bands is not None
            for shift in (-1.0, -1.0 + 2.0j):
                with pytest.raises(SingularShiftedMatrix, match="non-finite"):
                    ShiftedFactorization(A, E, shift)


class TestWindowedSolve:
    """A tridiagonal pencil with no decoupled state (the RLC ladders, two
    independent blocks) is solved on windows of its blocks that start at a
    block's first row and double until the solution's last two rows are
    below tiny; past them the solution is exactly zero."""

    TINY = np.finfo(float).tiny

    @staticmethod
    def _counted(fac):
        """Record the rows of every gttrs call of ``fac``."""
        calls, solve = [], fac._core_solve
        fac._core_solve = lambda b, trans, rows=None: calls.append(rows) or solve(b, trans, rows)
        return calls

    def test_blocks(self):
        """The ladders' blocks start where A and E both have no entry
        between two rows; a block shorter than 3 rows joins its neighbour,
        and a split pencil has no bands and the full frame."""
        from uadi.linalg import _PencilSplit

        g = rlc_ladder(50)
        split = _PencilSplit(g.A, g.E)
        assert list(split.bands[2]) == [0, 100, 200]
        pair = sps.csc_matrix([[-2.0, 1.0], [1.0, -3.0]])
        A = sps.block_diag([pair, g.A, pair], format="csc")
        assert list(_PencilSplit(A, sps.eye(204, format="csc")).bands[2]) == [0, 102, 204]
        beside = _PencilSplit(sps.block_diag([g.A, [[-3.0]]], format="csc"),
                              sps.block_diag([g.E, [[2.0]]], format="csc"))
        assert beside.bands is None and beside.frame.full

    @pytest.mark.parametrize("shift", [-1.867, -6.89 - 6.44j, -0.01, -0.02 + 0.5j])
    def test_agrees_with_full_length_solve(self, shift):
        """On rlc_ladder(4000), for the ports B (each column zero on the
        other block), B as a complex right-hand side, one starting mid-block
        and a dense one, plain and transposed: the windowed solve is zero
        outside the windows the split has used, agrees with one whole-band
        gttrs after the subnormal flush to 1e-290, and its full-system
        residual is the whole-band solve's plus at most 1e-300; the dense
        one, whose windows cover both blocks, is one gttrs call per block.
        At the two shifts near the axis the solution of B does not decay
        below tiny within the first ladder's block, so its window doubles
        up to the block's end; at the others both windows stop short of
        their blocks' ends, and a later solve starts from the windows
        seen, one gttrs call per block."""
        from uadi.uadi import _flush_subnormals

        g = rlc_ladder(4000)
        n, half = g.n, g.n // 2
        rng = np.random.default_rng(11)
        mid = np.zeros((n, 2))
        mid[3000:3010, 0] = rng.standard_normal(10)
        mid[half + 5000, 1] = 1.0
        near_axis = abs(shift.real) < 0.1
        for trans in "NT":
            M = (g.A + shift * g.E).tocsc()
            M = M if trans == "N" else M.T
            for name, b in (("B", g.B), ("complex", (1 + 2j) * g.B), ("mid", mid),
                            ("dense", rng.standard_normal((n, 2)))):
                fac = ShiftedFactorization(g.A, g.E, shift)
                full = whole_band_solve(g.A, g.E, shift, b, trans)
                calls = self._counted(fac)
                x = fac.solve(b, trans=trans)
                ends = dict(fac._split.ends)
                outside = np.ones(n, dtype=bool)
                for lo, end in ends.items():
                    outside[lo:end] = False
                assert not x[outside].any(), name
                gap = _flush_subnormals(x.copy()) - _flush_subnormals(full.copy())
                assert np.abs(gap).max() <= 1e-290, name
                res = [np.abs(M @ y - b).max(axis=0) for y in (x, full)]
                assert np.all(res[0] <= res[1] + 1e-300), name
                if name == "dense":   # both blocks whole: one call each
                    assert ends == {0: half, half: n} and calls == [(0, half), (half, n)]
                if name != "B":
                    continue
                assert len(calls) > 3   # 2 blocks, at least one doubled
                if near_axis:   # the first block whole
                    assert ends[0] == half and ends[half] < n
                else:
                    assert ends[0] < half and ends[half] < n
                    del calls[:]
                    fac.solve(b, trans=trans)
                    assert calls == list(ends.items()) and fac._split.ends == ends

    def test_checks_run_on_the_windows(self):
        """A right-hand side that is zero on every block makes no gttrs
        call; a non-finite one inside a window raises."""
        g = rlc_ladder(200)
        fac = ShiftedFactorization(g.A, g.E, -1.5)
        calls = self._counted(fac)
        assert not fac.solve(np.zeros((g.n, 2))).any() and calls == []
        b = np.zeros((g.n, 1))
        b[5] = np.nan
        with pytest.raises(SingularShiftedMatrix, match="non-finite"):
            fac.solve(b)


class TestFrameFactor:
    """A cache's LU of a banded pencil is factored per band block from the
    block's first row on the rows its split's windows reach plus one, and
    again from the first row on demand; every factored row has the bits of
    a whole-band gttrf (``whole_band``)."""

    @staticmethod
    def _check(fac, whole, ends):
        """Every segment of ``fac`` equals ``whole`` on its factored rows
        (its provisional row's pivot and pivot index aside) and runs no
        further than the split's window end plus one row."""
        starts = fac._band.starts
        for b, (lo, hi) in enumerate(zip(starts, starts[1:])):
            if lo not in ends:
                assert lo not in fac._band._segs
                continue
            first, done, *gt = fac._band._segs[lo]
            assert first == lo and len(gt[1]) == min(hi, ends[lo] + 1) - lo
            assert done == (hi if ends[lo] == hi else ends[lo])
            final = done - lo
            for k, (got, want) in enumerate(zip(gt, whole)):
                m = final if k in (1, 4) else len(got)
                want = want[lo:lo + m] - (lo if k == 4 else 0)
                np.testing.assert_array_equal(got[:m], want)

    @pytest.mark.parametrize("shift", [-1.867, -6.89 - 6.44j])
    def test_grown_factors_equal_the_whole_band(self, shift):
        """On rlc_ladder(2000), through a cache and its transposed borrow:
        the ports B, a right-hand side deep in the first block and a dense
        one, whose windows cover both blocks; the solution is then the
        whole band's, bit for bit."""
        g = rlc_ladder(2000)
        n, half = g.n, g.n // 2
        whole = whole_band(g.A, g.E, shift)
        cache = FactorizationCache(g.A, g.E)
        tcache = cache.transposed()
        deep = np.zeros((n, 1))
        deep[1500] = 1.0
        dense = np.random.default_rng(5).standard_normal((n, 2))
        for c, b in ((cache, g.B), (tcache, g.B), (tcache, deep), (cache, dense)):
            c.solve(shift, b)
            fac = cache.get(shift)
            self._check(fac, whole, fac._split.ends)
        assert cache.factor_count == 1 and tcache.factor_count == 0
        assert fac._split.ends == {0: half, half: n}
        for trans in "NT":
            np.testing.assert_array_equal(fac.solve(dense, trans=trans),
                                          whole_band_solve(g.A, g.E, shift, dense, trans))

    def test_a_new_lu_factors_the_frame(self):
        """An LU made after the frame has grown factors each reached block
        up to its window end plus one row at construction; a dense solve,
        whose windows cover both blocks, factors each block whole from its
        first row, and its solution is the whole band's, bit for bit."""
        g = rlc_ladder(2000)
        cache = FactorizationCache(g.A, g.E)
        cache.solve(-6.89 - 6.44j, g.B)
        ends = dict(cache._split.ends)
        assert all(end < hi for end, hi in zip(ends.values(), (g.n // 2, g.n)))
        fac = cache.get(-1.867)
        whole = whole_band(g.A, g.E, -1.867)
        self._check(fac, whole, ends)
        dense = np.random.default_rng(5).standard_normal((g.n, 2))
        np.testing.assert_array_equal(fac.solve(dense),
                                      whole_band_solve(g.A, g.E, -1.867, dense))
        self._check(fac, whole, {0: g.n // 2, g.n // 2: g.n})

    def test_a_full_frame_lu_holds_one_segment_per_block(self):
        """Once a ladder cache's frame is all rows, a new LU factors each
        block whole from its own first row, and its solutions of B are the
        whole band's, bit for bit."""
        g = rlc_ladder(2000)
        cache = FactorizationCache(g.A, g.E)
        cache.solve(-1.867, np.ones((g.n, 1)))
        assert cache.frame.full
        fac = cache.get(-6.89 - 6.44j)
        starts = fac._band.starts
        assert sorted(fac._band._segs) == starts[:-1]
        for lo, hi in zip(starts, starts[1:]):
            assert fac._band._segs[lo][:2] == [lo, hi]
        self._check(fac, whole_band(g.A, g.E, -6.89 - 6.44j), dict(zip(starts, starts[1:])))
        for c, trans in ((cache, "N"), (cache.transposed(), "T")):
            np.testing.assert_array_equal(
                c.solve(-6.89 - 6.44j, g.B),
                whole_band_solve(g.A, g.E, -6.89 - 6.44j, g.B, trans))

    @staticmethod
    def _ladder(n=600):
        """A diagonally dominant tridiagonal pencil of n states, all coupled,
        as lil matrices: A with -4 on the diagonal and 0.01 beside it, E
        the identity."""
        A = sps.diags([0.01, -4.0, 0.01], [-1, 0, 1], shape=(n, n), format="lil")
        return A, sps.eye(n, format="lil")

    def test_zero_pivot_inside_a_window_raises(self):
        """A zero column inside the first window: the cache's LU, made
        before any solve, factors nothing; the solve raises, as a one-off
        LU does when it is made."""
        A, E = self._ladder()
        A[:, 5] = 0.0
        E[5, 5] = 0.0
        A, E = A.tocsc(), E.tocsc()
        cache = FactorizationCache(A, E)
        fac = cache.get(-1.0)
        assert cache._split.bands is not None and fac._band._segs == {}
        b = np.zeros((A.shape[0], 1))
        b[0] = 1.0
        with pytest.raises(SingularShiftedMatrix, match="zero pivot 6"):
            cache.solve(-1.0, b)
        with pytest.raises(SingularShiftedMatrix, match="zero pivot 6"):
            ShiftedFactorization(A, E, -1.0)

    def test_zero_provisional_pivot_does_not_raise(self):
        """Row 257 is the provisional last row of the first window's prefix
        (the right-hand side's row 0 plus the 256-row margin, plus one); its
        provisional pivot is zero, but the next row's sub-diagonal entry
        takes the pivot there.  The solve does not raise, and a later
        window through row 257 factors the block again from its first row,
        with the whole band's factors."""
        A, E = self._ladder()
        A[257, 256] = A[257, 257] = 0.0
        E[257, 257] = 0.0
        A, E = A.tocsc(), E.tocsc()
        n = A.shape[0]
        cache = FactorizationCache(A, E)
        b = np.zeros((n, 1))
        b[0] = 1.0
        x = cache.solve(-1.0, b)
        fac = cache.get(-1.0)
        assert cache._split.ends == {0: 257} and fac._band._segs[0][3][257] == 0
        ref = ShiftedFactorization(A, E, -1.0)
        np.testing.assert_array_equal(x, ref.solve(b))
        b[400] = 1.0
        cache.solve(-1.0, b)
        self._check(fac, whole_band(A, E, -1.0), cache._split.ends)
        assert fac._band._segs[0][3][257] != 0

    def test_growth_check_falls_back_to_the_exact_max(self):
        """The bound max|A| + |shift| max|E| is 2.3e18 where the pencil's
        largest entry is 256 (A's diagonal -(2^60 + 256) cancels against
        E's 2^60 at shift 1): the bound's growth check fires, the exact one
        clears, and the solve passes."""
        n, big = 300, 2.0 ** 60
        A = sps.diags([1.0, -(big + 256.0), 1.0], [-1, 0, 1], shape=(n, n), format="csc")
        E = sps.diags([big], [0], shape=(n, n), format="csc")
        fac = FactorizationCache(A, E).get(1.0)
        assert not fac._exact and fac._entry_max > 2e18
        b = np.zeros((n, 1))
        b[0] = 1.0
        x = fac.solve(b)
        assert fac._exact and fac._entry_max == 256.0
        want = np.linalg.solve((A + E).toarray(), b)
        assert np.abs(x - want).max() <= 1e-15 * np.abs(want).max()

    def test_roundoff_singular_window_raises(self):
        """A tridiagonal pencil singular but for the rounding of its last
        diagonal entry, 336/5: a cache's LU factors it at its first solve,
        and both solves report it as a one-off LU does."""
        A = sps.diags([[1.0, 2.0, 4.0], [4.0, 6.0, 1.0, 336 / 5], [3.0, 2.0, 4.0]],
                      [-1, 0, 1], format="csc")
        E = sps.eye(4, format="csc")
        cache = FactorizationCache(A, E)
        assert cache._split.bands is not None
        for trans, c in (("N", cache), ("T", cache.transposed())):
            with pytest.raises(SingularShiftedMatrix, match="numerically singular"):
                c.solve(0.0, np.ones((4, 1)))
            with pytest.raises(SingularShiftedMatrix, match="numerically singular"):
                ShiftedFactorization(A, E, 0.0).solve(np.ones((4, 1)), trans=trans)

    def test_non_finite_band_raises_at_construction(self):
        """Through a cache whose frame is still empty, too."""
        A = sps.diags([1.0, -4.0, 1.0], [-1, 0, 1], shape=(4, 4), format="csc")
        for bad in (np.nan, np.inf):
            E = sps.eye(4, format="lil")
            E[1, 2] = bad
            cache = FactorizationCache(A, E.tocsc())
            assert cache._split.bands is not None
            for shift in (-1.0, -1.0 + 2.0j):
                with pytest.raises(SingularShiftedMatrix, match="non-finite"):
                    cache.get(shift)


class TestRestrict:
    """A split's row frame reads the pencil on its rows off the bands
    (``RowFrame.pencil``): it drops the entries that couple a run of frame
    rows to the rows beside it, and asserts the edge rule the whole matrix
    would give."""

    @staticmethod
    def _whole_matrix_rule(M, rows, edge):
        """Whether every stored nonzero of M joining a frame row to a row
        off the frame, in its row or its column, lies at an edge row."""
        M = M.tocsc()
        n = M.shape[0]
        inside = np.zeros(n, dtype=bool)
        inside[rows] = True
        cols = np.repeat(np.arange(n), np.diff(M.indptr))
        cross = (inside[M.indices] != inside[cols]) & (M.data != 0)
        border = np.where(inside[M.indices], M.indices, cols)[cross]
        return bool(np.isin(border, rows[edge]).all())

    @staticmethod
    def _ladder_frame(g):
        """rlc_ladder(50)'s frame of the first 30 rows of each block."""
        from uadi.linalg import _PencilSplit

        split = _PencilSplit(g.A, g.E)
        split.ends = {0: 30, 100: 130}
        return split.frame

    def test_coupled_off_the_edge(self):
        """On rlc_ladder(50), the frame of the first 30 rows of each block
        has edges 29 and 59 and gives the frame's submatrices of A and E.
        Without edge 59, or with the second run starting mid-block, the
        assertion trips; a zero coupling there couples nothing."""
        from uadi.linalg import RowFrame

        g = rlc_ladder(50)
        frame = self._ladder_frame(g)
        rows = np.r_[0:30, 100:130]
        np.testing.assert_array_equal(frame.rows, rows)
        assert list(frame.edge) == [29, 59]
        for got, M in zip(frame.pencil, (g.A, g.E)):
            np.testing.assert_array_equal(got.toarray(), M.toarray()[np.ix_(rows, rows)])
        for at, edge in ((rows, [29]), (np.r_[0:30, 105:130], [29, 54])):
            with pytest.raises(AssertionError, match="coupled off the edge"):
                RowFrame(g.n, at, edge, frame.bands).pencil
        a = frame.bands[0].copy()
        a[0, 130] = a[2, 129] = 0.0   # entries (129, 130) and (130, 129)
        RowFrame(g.n, rows, [29], (a, frame.bands[1])).pencil

    def test_b_off_the_frame(self):
        g = rlc_ladder(50)
        B = g.B.copy()
        B[150, 0] = 1.0
        sys = StateSpaceSystem(g.E, g.A, B, g.C)
        with pytest.raises(AssertionError, match="B off the frame"):
            sys.restricted(self._ladder_frame(g))

    def test_agrees_with_the_whole_matrix_rule(self, rng):
        """On random tridiagonal pencils with random block links and
        per-block prefix frames, one edge dropped half the time: the check
        fails exactly when the whole-matrix rule does on A or E, and
        otherwise gives the frame's submatrices of A and E."""
        from uadi.linalg import RowFrame, _PencilSplit

        outcomes = []
        for trial in range(200):
            n = int(rng.integers(6, 40))
            # sub-, main and super-diagonal of A and E, each entry zero at
            # random; both off-diagonals zero at random links, no two
            # adjacent, so every state stays coupled
            d = rng.standard_normal((2, 3, n)) * (rng.random((2, 3, n)) < 0.8)
            cut = rng.random(n) < 0.2
            cut[:2] = cut[-1] = False
            cut[1:] &= ~cut[:-1]
            d[:, ::2, cut] = 0.0
            A, E = (sps.diags([x[0, 1:], x[1], x[2, 1:]], [-1, 0, 1], format="csc") for x in d)
            split = _PencilSplit(A, E)
            if split.bands is None:   # a state with no coupling left
                continue
            starts = split.bands[2]
            split.ends = {int(lo): int(rng.integers(lo + 1, hi + 1))
                          for lo, hi in zip(starts, starts[1:]) if rng.random() < 0.7}
            frame = split.frame
            if frame.full:
                continue
            rows, edge = frame.rows, frame.edge
            if len(edge) and trial % 2:
                edge = np.delete(edge, rng.integers(len(edge)))
            want = all(self._whole_matrix_rule(M, rows, edge) for M in (A, E))
            outcomes.append(want)
            try:
                got = RowFrame(n, rows, edge, frame.bands).pencil
            except AssertionError:
                assert not want, trial
                continue
            assert want, trial
            for X, M in zip(got, (A, E)):
                np.testing.assert_array_equal(X.toarray(), M.toarray()[np.ix_(rows, rows)])
        assert len(outcomes) > 100 and any(outcomes) and not all(outcomes)


class TestSmallInverse:
    """The inverse of a small matrix by scipy.linalg.inv's route for its
    structure, with the reciprocal condition from the same factor."""

    def test_same_bits_as_inv_and_its_condition(self, rng):
        a = rng.standard_normal((5, 5))
        for name, m in (("general", a), ("upper", np.triu(a)), ("lower", np.tril(a)),
                        ("diagonal", np.diag(np.diag(a))), ("symmetric", a + a.T),
                        ("definite", a @ a.T + np.eye(5))):
            inv, rcond = small_inverse(m)
            np.testing.assert_array_equal(inv, spla.inv(m), err_msg=name)
            exact = 1.0 / np.linalg.cond(m, 1)
            assert exact * (1 - 1e-12) <= rcond <= 10 * exact, name

    def test_singular_and_ill_conditioned(self):
        for singular in ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                         [[1.0, 2.0], [0.0, 0.0]]):
            assert small_inverse(singular) == (None, 0.0)
        _, rcond = small_inverse([[1.0, 1.0], [1.0 + 1e-13, 1.0 - 1e-13]])
        assert rcond < 1e-12


class TestSmallSylvester:
    def test_scalar(self):
        x = solve_small_sylvester([[-2.0]], [[1.0]], [[3.0]])
        assert x[0, 0] == pytest.approx(1.0)

    def test_spectra_overlap(self):
        with pytest.raises(SpectraOverlap):
            solve_small_sylvester([[-1.0]], [[-1.0]], [[1.0]])

    def test_residual_substitution(self, rng):
        F = rng.standard_normal((8, 8))
        F -= (np.max(spla.eigvals(F).real) + 0.5) * np.eye(8)
        G = rng.standard_normal((5, 5))
        G += (0.5 - np.min(spla.eigvals(G).real)) * np.eye(5)
        H = rng.standard_normal((8, 5))
        X = solve_small_sylvester(F, G, H)
        res = F @ X - X @ G + H
        scale = (spla.norm(F) + spla.norm(G)) * spla.norm(X) + spla.norm(H)
        assert spla.norm(res) <= 1e-11 * scale

    def test_many_random_instances(self, rng):
        for k in range(1000):
            p, q = rng.integers(1, 5), rng.integers(1, 5)
            F = rng.standard_normal((p, p)) - 2.0 * np.eye(p)
            G = rng.standard_normal((q, q)) + 2.0 * np.eye(q)
            if np.min(np.abs(spla.eigvals(F)[:, None] - spla.eigvals(G)[None, :])) < 1e-6:
                continue
            H = rng.standard_normal((p, q))
            X = solve_small_sylvester(F, G, H)
            res = F @ X - X @ G + H
            scale = (spla.norm(F) + spla.norm(G)) * max(spla.norm(X), 1e-300) + spla.norm(H)
            assert spla.norm(res) <= 1e-11 * scale


def _stable_dense(rng, k):
    F = rng.standard_normal((k, k))
    return F - (np.max(spla.eigvals(F).real) + 0.5) * np.eye(k)


def _narrow_blocks(m):
    """Companion blocks s of lyap_sl, a real shift, rotation blocks of a
    conjugate pair and chains of two real shifts."""
    u = ShiftUnit
    I = np.eye(m)

    def rot(a, b):  # eigenvalues -a -+ i b
        return np.kron(np.array([[-a, -b], [b, -a]]), I)

    def chain(a1, a2):  # eigenvalues -a1, -a2, one Jordan block if equal
        return np.kron(np.array([[-a1, 1.0], [0.0, -a2]]), I)

    return [
        lyap_sl(u(-0.7), m)[0],
        lyap_sl(u(-0.3 + 2.0j), m)[0],
        1.0 * I,
        rot(-1.0, 3.0),
        rot(-2.0, -1.0),
        chain(-1.0, -1.5),
        chain(-1.0, -1.0),
        chain(-2.0, -0.5),
    ]


def _held_form(k, m, units):
    """The complex Schur form of S grown as an engine side grows it, one
    lyap_sl unit block at a time coupled through L^T l, cycling through
    ``units`` until S has at least k columns and ends on ``units[-1]``;
    with the unit boundaries and S itself, grown block by block."""
    form, L, bounds = schur_form(np.zeros((0, 0))), np.zeros((m, 0)), [0]
    S = np.zeros((0, 0))
    while bounds[-1] < k or (len(bounds) - 1) % len(units):
        unit = ShiftUnit(units[(len(bounds) - 1) % len(units)])
        s, l = lyap_sl(unit, m)
        block = schur_form(lyap_sl(unit, 1)[0], output="complex").kron(m)
        form = form.extended(L.T @ l, block)
        S = np.block([[S, L.T @ l], [np.zeros((len(s), len(S))), s]])
        L = np.hstack([L, l])
        bounds.append(len(S))
    return form, bounds, S


class TestColumnRoute:
    """Narrow companion side: the extraction kernel solves column by column
    against the held complex Schur form, with one shifted triangular factor
    per distinct eigenvalue of the consumed block, whatever the number of
    equations solved against the form."""

    @pytest.mark.parametrize("k", [9, 40, 120])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_bartels_stewart(self, rng, k, m):
        """Each block given as a matrix and as its complex Schur form."""
        F = _stable_dense(rng, k)
        for s in _narrow_blocks(m):
            H = rng.standard_normal((k, s.shape[0]))
            ref = spla.solve_sylvester(F, -s, -H)
            for G in (s, schur_form(s, output="complex")):
                X = solve_small_sylvester(F, G, H)
                assert X.dtype == np.float64
                assert spla.norm(X - ref) <= 1e-12 * spla.norm(ref)

    @pytest.mark.parametrize("k", [9, 40, 120])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("last", [-0.7, -0.3 + 2.0j])
    def test_placed_kernel_agrees(self, rng, monkeypatch, k, m, last):
        """Against scipy on the formed placed matrix: the last unit, a block
        of several units and a lagging prefix (as a Sylvester group consumes
        them), each for a stack of three records, one with no correction and
        two with rank-p ones, and for each record alone."""
        form, bounds, S_all = _held_form(k, m, [-1.5, -0.2 + 1.0j, -4.0, last])
        import uadi.linalg as linalg

        counts, solve_placed_sylvester = count_shifted(monkeypatch, linalg)
        pair = complex(last).imag != 0
        blocks = [(bounds[-2], bounds[-1], 1 + pair), (bounds[-4], bounds[-1], 4 + pair),
                  (bounds[-4], bounds[-2], 3)]
        for kp, q, distinct in blocks:
            S, s = S_all[:q, :q], S_all[kp:q, kp:q]
            for p in (1, m + 1):
                H = rng.standard_normal((3, q, q - kp))
                G = rng.standard_normal((q, p))
                U = [None, rng.standard_normal((q, p)), rng.standard_normal((q, p))]
                t, failed = solve_placed_sylvester(form, kp, q, H, U, G)
                assert t.dtype == np.float64 and t.shape == H.shape and not failed
                for i, u in enumerate(U):
                    A = S.T if u is None else S.T + u @ G.T
                    ref = spla.solve_sylvester(A, s, H[i])
                    assert spla.norm(t[i] - ref) <= 1e-11 * spla.norm(ref)
                    alone, _ = solve_placed_sylvester(form, kp, q, H[i:i + 1], [u], G)
                    assert spla.norm(alone[0] - t[i]) <= 1e-13 * spla.norm(ref)
                # each call forms one factor per distinct eigenvalue of the
                # units it consumes (a pair has two), shared by its records
                assert counts == [distinct] * 4
                counts.clear()

    def test_singular_capacitance(self, rng):
        """A rank-one correction that makes the consumed block's eigenvalue
        mu an eigenvalue of the placed matrix -S^T - u g^T."""
        form, bounds, S = _held_form(20, 2, [-1.5, -0.2 + 1.0j, -0.7])
        kp, q = bounds[-2], bounds[-1]
        mu = form.T[kp, kp]
        assert mu.imag == 0
        A = S.T + mu.real * np.eye(q)
        g, w = rng.standard_normal((q, 1)), rng.standard_normal(q)
        u = -(A @ w)[:, None] / (g[:, 0] @ w)   # (A + u g^T) w = 0
        H = rng.standard_normal((2, q, q - kp))
        t, failed = solve_placed_sylvester(form, kp, q, H, [None, u], g)
        assert list(failed) == [1] and isinstance(failed[1], SpectraOverlap)
        # the record beside it is solved as if alone
        ref = spla.solve_sylvester(S.T, S[kp:, kp:], H[0])
        assert spla.norm(t[0] - ref) <= 1e-11 * spla.norm(ref)

    def test_unfit_form_raises(self, rng):
        """A real Schur form would have its 2x2 bumps read as triangular, and
        a form with a dense Z would mix the consumed block with the rest;
        both are refused, not solved."""
        form, bounds, S = _held_form(20, 2, [-1.5, -0.7, -0.2 + 1.0j])
        kp, q = bounds[-2], bounds[-1]
        H = rng.standard_normal((1, q, q - kp))
        dense = schur_form(_stable_dense(rng, q), output="complex")
        for unfit in (schur_form(S), dense):
            with pytest.raises(ValueError):
                solve_placed_sylvester(unfit, kp, q, H, [None])
        # the lagging prefix ends inside the held form, at a unit boundary
        kp, q = bounds[-3], bounds[-2]
        solve_placed_sylvester(form, kp, q, rng.standard_normal((1, q, q - kp)), [None])

    @pytest.mark.parametrize("unit", [-0.7, -0.3 + 2.0j])
    def test_spectra_overlap(self, rng, unit):
        k = 12
        s, _ = lyap_sl(ShiftUnit(unit), 2)
        lam = complex(-unit.real, unit.imag)  # an eigenvalue of s
        # F = Q R Q^T with R quasi-triangular and lam among its eigenvalues
        R = np.triu(rng.standard_normal((k, k)))
        np.fill_diagonal(R, -1.0 - np.arange(k))
        if lam.imag:
            R[:2, :2] = [[lam.real, lam.imag], [-lam.imag, lam.real]]
        else:
            R[0, 0] = lam.real
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        F = Q @ R @ Q.T
        with pytest.raises(SpectraOverlap):
            solve_small_sylvester(F, s, rng.standard_normal((k, s.shape[0])))


class TestSchurReuse:
    def test_extended_is_a_schur_form(self, rng):
        blocks = [lyap_sl(ShiftUnit(v), 2)[0] for v in (-0.5, -1 + 3j, -2.0)]
        S = np.zeros((0, 0))
        form = schur_form(S)
        for s in blocks:
            C = rng.standard_normal((S.shape[0], s.shape[0]))
            S = np.block([[S, C], [np.zeros((s.shape[0], S.shape[0])), s]])
            form = form.extended(C, schur_form(s))
        assert np.allclose(form.Z.T @ form.Z, np.eye(len(S)), atol=1e-14)
        assert spla.norm(form.Z @ form.T @ form.Z.T - S) <= 1e-14 * spla.norm(S)
        assert not np.any(np.tril(form.T, -2))  # quasi-triangular
        assert_multiset_close(form.eigvals, spla.eigvals(S), 1e-10)

    @pytest.mark.parametrize("m", [1, 3])
    def test_extended_complex_form(self, rng, m):
        """Unit forms made from the m = 1 block: T triangular, and each unit
        eigenvalue repeated exactly m times on T's diagonal."""
        form, bounds, S = _held_form(4 * m, m, [-0.5, -1 + 3j, -2.0])
        assert spla.norm(form.Z.conj().T @ form.Z - np.eye(len(S))) <= 1e-14 * len(S)
        assert spla.norm(form.Z @ form.T @ form.Z.conj().T - S) <= 1e-14 * spla.norm(S)
        assert not np.any(np.tril(form.T, -1))
        assert not np.any(form.Z[: bounds[1], bounds[1]:])  # block diagonal
        pair = np.diagonal(form.T)[bounds[1]: bounds[2]]
        assert len(set(pair.tolist())) == 2
        assert_multiset_close(form.eigvals, spla.eigvals(S), 1e-10)


class TestSmallLyapunov:
    def test_scalar(self):
        assert solve_small_lyapunov([[-1.0]], [[2.0]])[0, 0] == pytest.approx(1.0)
        assert solve_small_lyapunov([[-1.0]], [[0.0]])[0, 0] == 0.0

    def test_positive_definite(self, rng):
        F = rng.standard_normal((4, 4))
        F -= (np.max(spla.eigvals(F).real) + 0.5) * np.eye(4)
        X = solve_small_lyapunov(F, np.eye(4))
        assert np.min(spla.eigvalsh(X)) > 0
        res = F.T @ X + X @ F + np.eye(4)
        assert spla.norm(res) <= 1e-11 * max(spla.norm(X) * spla.norm(F), 1.0)

    def test_hermitian_enforced(self, rng):
        for k in range(1000):
            p = rng.integers(1, 5)
            F = rng.standard_normal((p, p)) - 2.0 * np.eye(p)
            Q0 = rng.standard_normal((p, p))
            Q = Q0 @ Q0.T
            X = solve_small_lyapunov(F, Q)
            assert np.array_equal(X, X.T)
            res = F.T @ X + X @ F + Q
            scale = 2 * spla.norm(F) * max(spla.norm(X), 1e-300) + spla.norm(Q)
            assert spla.norm(res) <= 1e-11 * scale

    def test_rejects_asymmetric_rhs(self):
        with pytest.raises(NonHermitianRHS):
            solve_small_lyapunov(-np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("unit", [-0.7, -0.3 + 2.0j])
    @pytest.mark.parametrize("m", [1, 2])
    def test_stack_equals_one_by_one(self, rng, unit, m):
        """A stack of right-hand sides against the negated block of a real
        or a pair unit, given as a matrix or, as the weighted families'
        middle blocks are solved, as the negated complex Schur form of the
        unit's block, gives each Q_i's own solution."""
        s = lyap_sl(ShiftUnit(unit), m)[0]
        F = -s
        H = rng.standard_normal((4, len(F), 3))
        Q = H @ H.swapaxes(1, 2)
        for op in (F, -schur_form(lyap_sl(ShiftUnit(unit), 1)[0], output="complex").kron(m)):
            X = solve_small_lyapunov(op, Q)
            assert X.shape == Q.shape and X.dtype == np.float64
            for Xi, Qi in zip(X, Q):
                ref = solve_small_lyapunov(F, Qi)
                assert spla.norm(Xi - ref) <= 1e-14 * spla.norm(ref)
                assert np.array_equal(Xi, Xi.T)
        if len(F) > 1:   # one non-Hermitian Q_i is refused
            with pytest.raises(NonHermitianRHS):
                solve_small_lyapunov(F, np.stack([Q[0], Q[1] + np.triu(Q[1], 1)]))

    def test_matrix_call_is_plain_bartels_stewart(self):
        """A single Q takes the textbook arithmetic bit for bit: scipy's
        real Schur form of F, one LAPACK trsyl, symmetrized.  So does the
        penzl generator, whose head pencil comes from two such calls."""
        def reference(F, Q):
            t, z = spla.schur(F)
            trsyl, = spla.get_lapack_funcs(("trsyl",), (t,))
            y, scale, info = trsyl(t, t, z.T @ (-Q @ z), trana="C")
            assert info == 0
            X = z @ (y / scale) @ z.T
            return 0.5 * (X + X.T)

        aa = spla.block_diag(*[np.array([[-1.0, w], [-w, -1.0]]) for w in (10, 20, 30)])
        bb, cc = 10.0 * np.ones((6, 1)), 10.0 * np.ones((1, 6))
        pp, qq = reference(aa.T, bb @ bb.T), reference(aa, cc.T @ cc)
        assert np.array_equal(solve_small_lyapunov(aa.T, bb @ bb.T), pp)
        assert np.array_equal(solve_small_lyapunov(aa, cc.T @ cc), qq)
        g = penzl_triple_peak(100, 10, 20, 30)
        assert np.array_equal(g.E.toarray()[:6, :6], qq @ pp)
        assert np.array_equal(g.A.toarray()[:6, :6], qq @ aa @ pp)

    def test_spectra_overlap(self):
        F = np.diag([1.0, -1.0])  # lambda_1 + conj(lambda_2) = 0
        with pytest.raises(SpectraOverlap):
            solve_small_lyapunov(F, np.eye(2))


class TestSmallEig:
    def test_rotation_block(self):
        w, _, _ = small_eig(np.array([[-1.0, 10.0], [-10.0, -1.0]]))
        assert sorted(np.round(w.imag, 8)) == [-10.0, 10.0]
        np.testing.assert_allclose(w.real, [-1.0, -1.0], atol=1e-12)

    def test_identity(self):
        w, _, _ = small_eig(np.eye(2))
        np.testing.assert_allclose(np.sort(w.real), [1.0, 1.0])

    def test_companion_roots(self):
        # companion matrix of (s+1)(s+2)(s+3) = s^3 + 6 s^2 + 11 s + 6
        F = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]])
        w, T, Tl = small_eig(F)
        np.testing.assert_allclose(np.sort(w.real), [-3.0, -2.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(Tl @ T, np.eye(3), atol=1e-12)

    def test_pencil_form(self, rng):
        F = rng.standard_normal((5, 5))
        E = np.eye(5) + 0.1 * rng.standard_normal((5, 5))
        w, T, _ = small_eig(F, E)
        np.testing.assert_allclose(
            np.sort_complex(w), np.sort_complex(spla.eigvals(spla.solve(E, F))),
            atol=1e-10,
        )

    @staticmethod
    def scipy_route(F, E=None):
        w, T = spla.eig(F if E is None else spla.solve(E, F))
        return w, T, spla.inv(T)

    @pytest.mark.parametrize("n", [1, 2, 6, 10, 20])
    def test_bits_of_the_scipy_route(self, rng, n):
        """w, T and inv(T) are scipy.linalg.solve, eig and inv's bits, dtypes
        included, for general pencils and matrices: real eigenvalues (a
        symmetric F), complex pairs (a rotation block) and n = 1."""
        rot = np.zeros((n, n))
        rot[:2, :2] = np.array([[-1.0, 3.0], [-3.0, -1.0]])[:n, :n]
        for _ in range(5):
            F, E = rng.standard_normal((2, n, n))
            rotated = rot + np.diag(rng.standard_normal(n))
            for F_, E_ in ((F, E), (F, None), (F + F.T, None), (F + F.T, E),
                           (rotated, E), (rotated, None)):
                got, want = small_eig(F_, E_), self.scipy_route(F_, E_)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.iscomplexobj(small_eig(rot)[1]) == (n > 1)

    def test_singular_and_ill_conditioned_pencils(self):
        with pytest.raises(EigFailure):
            small_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(EigFailure):
            small_eig(np.eye(2), np.zeros((2, 2)))
        with pytest.warns(spla.LinAlgWarning):
            small_eig(np.eye(2), np.array([[1.0, 2.0], [1.0, 2.0 + 1e-15]]))


class TestGramNorm:
    def test_rank_one(self):
        assert gram_norm2(np.array([[1.0], [0.0]]), np.array([[2.0]])) == pytest.approx(2.0)

    def test_zero(self):
        assert gram_norm2(np.zeros((5, 2))) == 0.0
        assert gram_norm2(np.zeros((5, 0))) == 0.0

    def test_against_dense_norm(self, rng):
        Z = rng.standard_normal((100, 3))
        M = rng.standard_normal((3, 3))
        dense = np.linalg.norm(Z @ M @ Z.T, 2)
        assert gram_norm2(Z, M) == pytest.approx(dense, rel=1e-10)

    def test_two_sided_against_dense(self, rng):
        for n in (10, 60, 200):
            Z = rng.standard_normal((n, 3))
            Z2 = rng.standard_normal((n // 2, 4))
            M = rng.standard_normal((3, 4))
            dense = np.linalg.norm(Z @ M @ Z2.T, 2)
            assert gram_norm2(Z, M, Z2) == pytest.approx(dense, rel=1e-10)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            gram_norm2(np.ones((4, 2)), np.ones((3, 2)))
