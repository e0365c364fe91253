import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps

from uadi.errors import (
    DimensionMismatch,
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

from conftest import assert_multiset_close


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
        """On rlc_ladder(50), whole and beside a decoupled state, at a real
        and a complex shift: plain and transposed solves, one-off and
        through a cache and its transposed borrow, of real, complex and
        1-D right-hand sides, agree with a dense solve, and no SuperLU LU
        is made."""
        g = rlc_ladder(50)
        beside = (sps.block_diag([g.A, [[-3.0]]], format="csc"),
                  sps.block_diag([g.E, [[2.0]]], format="csc"))
        shapes = self._splu_shapes(monkeypatch)
        for A, E in ((g.A, g.E), beside):
            n = A.shape[0]
            rhss = (rng.standard_normal((n, 3)),
                    rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)),
                    rng.standard_normal(n))
            cache = FactorizationCache(A, E)
            tcache = cache.transposed()
            assert cache._split.bands is not None
            for shift in (-1.867, -1.0 + 20.0j):
                M = (A + shift * E).toarray()
                fac = ShiftedFactorization(A, E, shift)
                assert fac._gt is not None and fac._lu is None
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
        """penzl's dense 6 x 6 head, a dense random pencil and a 2-state
        tridiagonal core (too small for gttrf) are factored by SuperLU."""
        from uadi.systems import random_stable_system

        penzl, dense = penzl_triple_peak(200, 10, 20, 30), random_stable_system(8, 2, 2, 0)
        two = sps.csc_matrix([[-1.0, 0.5, 0.0], [0.5, -2.0, 0.0], [0.0, 0.0, -3.0]])
        shapes = self._splu_shapes(monkeypatch)
        for A, E in ((penzl.A, penzl.E), (dense.A, dense.E), (two, sps.eye(3))):
            for shift in (-1.5, -1.0 + 2.0j):
                fac = ShiftedFactorization(A, E, shift)
                assert fac._gt is None and fac._lu is not None
        assert shapes == [(6, 6)] * 2 + [(8, 8)] * 2 + [(2, 2)] * 2

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
        and a split pencil is not windowed."""
        from uadi.linalg import _PencilSplit

        g = rlc_ladder(50)
        split = _PencilSplit(g.A, g.E)
        assert split.windowed and list(split.bands[2]) == [0, 100, 200]
        pair = sps.csc_matrix([[-2.0, 1.0], [1.0, -3.0]])
        A = sps.block_diag([pair, g.A, pair], format="csc")
        assert list(_PencilSplit(A, sps.eye(204, format="csc")).bands[2]) == [0, 102, 204]
        beside = _PencilSplit(sps.block_diag([g.A, [[-3.0]]], format="csc"),
                              sps.block_diag([g.E, [[2.0]]], format="csc"))
        assert not beside.windowed and beside.reach == [slice(0, 201)]

    @pytest.mark.parametrize("shift", [-1.867, -6.89 - 6.44j, -0.01, -0.02 + 0.5j])
    def test_agrees_with_full_length_solve(self, shift):
        """On rlc_ladder(4000), for the ports B (each column zero on the
        other block), B as a complex right-hand side, one starting mid-block
        and a dense one, plain and transposed: the windowed solve is zero
        outside the split's reach, agrees with one full-length gttrs after
        the subnormal flush to 1e-290, and its full-system residual is the
        full solve's plus at most 1e-300; the dense one, whose windows cover
        both blocks, is one gttrs call.  At the two shifts near the axis
        the solution of B does not decay below tiny within the first
        ladder's block, so its window doubles up to the block's end; at the
        others both windows stop short of their blocks' ends, and a later
        solve starts from the reach seen."""
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
                full = fac._core_solve(b, trans)
                calls = self._counted(fac)
                x = fac.solve(b, trans=trans)
                reach = fac._split.reach
                outside = np.ones(n, dtype=bool)
                for r in reach:
                    outside[r] = False
                assert not x[outside].any(), name
                gap = _flush_subnormals(x.copy()) - _flush_subnormals(full.copy())
                assert np.abs(gap).max() <= 1e-290, name
                res = [np.abs(M @ y - b).max(axis=0) for y in (x, full)]
                assert np.all(res[0] <= res[1] + 1e-300), name
                if name == "dense":   # both blocks whole: one call
                    assert reach == [slice(0, n)] and calls == [(0, n)]
                if name != "B":
                    continue
                assert len(calls) > 3   # 2 blocks, at least one doubled
                if near_axis:   # the first block whole, joined with the second
                    assert len(reach) == 1 and half < reach[0].stop < n
                else:
                    assert reach[0].stop < half and reach[1].stop < n
                    del calls[:-1]
                    fac.solve(b, trans=trans)
                    assert len(calls) == 3 and fac._split.reach == reach

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
    with the unit boundaries."""
    form, L, bounds = schur_form(np.zeros((0, 0))), np.zeros((m, 0)), [0]
    while bounds[-1] < k or (len(bounds) - 1) % len(units):
        unit = ShiftUnit(units[(len(bounds) - 1) % len(units)])
        _, l = lyap_sl(unit, m)
        block = schur_form(lyap_sl(unit, 1)[0], output="complex").kron(m)
        form = form.extended(L.T @ l, block)
        L = np.hstack([L, l])
        bounds.append(len(form.a))
    return form, bounds


class TestColumnRoute:
    """Narrow companion side: the extraction kernel solves column by column
    against the held complex Schur form, with one shifted triangular factor
    per distinct eigenvalue of the consumed block, whatever the number of
    equations solved against the form."""

    @pytest.mark.parametrize("k", [9, 40, 120])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_agrees_with_bartels_stewart(self, rng, k, m):
        F = _stable_dense(rng, k)
        for s in _narrow_blocks(m):
            H = rng.standard_normal((k, s.shape[0]))
            X = solve_small_sylvester(F, s, H)
            ref = spla.solve_sylvester(F, -s, -H)
            assert X.dtype == np.float64
            assert spla.norm(X - ref) <= 1e-12 * spla.norm(ref)

    @pytest.mark.parametrize("k", [9, 40, 120])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("last", [-0.7, -0.3 + 2.0j])
    def test_placed_kernel_agrees(self, rng, k, m, last):
        """Against scipy on the formed placed matrix: the last unit, a block
        of several units and a lagging prefix (as a Sylvester group consumes
        them), each for a stack of three records, one with no correction and
        two with rank-p ones, and for each record alone."""
        form, bounds = _held_form(k, m, [-1.5, -0.2 + 1.0j, -4.0, last])
        blocks = [(bounds[-2], bounds[-1]), (bounds[-4], bounds[-1]),
                  (bounds[-4], bounds[-2])]
        for kp, q in blocks:
            S, s = form.a[:q, :q], form.a[kp:q, kp:q]
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
        # one factor per distinct eigenvalue of the three units consumed (a
        # pair has two), shared by every solve above
        assert len(form._shifted) == 4 + (complex(last).imag != 0)

    def test_singular_capacitance(self, rng):
        """A rank-one correction that makes the consumed block's eigenvalue
        mu an eigenvalue of the placed matrix -S^T - u g^T."""
        form, bounds = _held_form(20, 2, [-1.5, -0.2 + 1.0j, -0.7])
        kp, q = bounds[-2], bounds[-1]
        mu = form.T[kp, kp]
        assert mu.imag == 0
        A = form.a.T + mu.real * np.eye(q)
        g, w = rng.standard_normal((q, 1)), rng.standard_normal(q)
        u = -(A @ w)[:, None] / (g[:, 0] @ w)   # (A + u g^T) w = 0
        H = rng.standard_normal((2, q, q - kp))
        t, failed = solve_placed_sylvester(form, kp, q, H, [None, u], g)
        assert list(failed) == [1] and isinstance(failed[1], SpectraOverlap)
        # the record beside it is solved as if alone
        ref = spla.solve_sylvester(form.a.T, form.a[kp:, kp:], H[0])
        assert spla.norm(t[0] - ref) <= 1e-11 * spla.norm(ref)

    def test_unfit_form_raises(self, rng):
        """A real Schur form would have its 2x2 bumps read as triangular, and
        a form with a dense Z would mix the consumed block with the rest;
        both are refused, not solved."""
        form, bounds = _held_form(20, 2, [-1.5, -0.7, -0.2 + 1.0j])
        kp, q = bounds[-2], bounds[-1]
        H = rng.standard_normal((1, q, q - kp))
        dense = schur_form(_stable_dense(rng, q), output="complex")
        for unfit in (schur_form(form.a), dense):
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
        assert np.array_equal(form.a, S)
        assert spla.norm(form.Z @ form.T @ form.Z.T - S) <= 1e-14 * spla.norm(S)
        assert not np.any(np.tril(form.T, -2))  # quasi-triangular
        assert_multiset_close(form.eigvals, spla.eigvals(S), 1e-10)

    @pytest.mark.parametrize("m", [1, 3])
    def test_extended_complex_form(self, rng, m):
        """Unit forms made from the m = 1 block: T triangular, a real, and
        each unit eigenvalue repeated exactly m times on T's diagonal."""
        form, bounds = _held_form(4 * m, m, [-0.5, -1 + 3j, -2.0])
        S = form.a
        assert not np.iscomplexobj(S)
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
        or a pair unit, as the weighted families' middle blocks are solved,
        gives each Q_i's own solution."""
        F = -lyap_sl(ShiftUnit(unit), m)[0]
        H = rng.standard_normal((4, len(F), 3))
        Q = H @ H.swapaxes(1, 2)
        X = solve_small_lyapunov(F, Q)
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
