import numpy as np
import pytest
import scipy.linalg as spla

import uadi.systems
from uadi.errors import DimensionMismatch, InvalidSize, MissingMatrix, ParseError, SingularE
from uadi.linalg import solve_small_lyapunov
from conftest import assert_multiset_close

from uadi.systems import (
    EquationParams,
    StateSpaceSystem,
    illustrative_pair,
    load_system,
    penzl_triple_peak,
    random_stable_system,
    rlc_ladder,
    save_system,
    transfer_eval,
)


class TestContainer:
    def test_d_defaults_to_zero(self):
        sys = StateSpaceSystem(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
        assert np.array_equal(sys.D, np.zeros((1, 1)))

    def test_singular_e_rejected(self):
        E = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularE):
            StateSpaceSystem(E, -np.eye(2), np.ones((2, 1)), np.ones((1, 2)))

    def test_factorization_bug_is_not_singular_e(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug inside the factorization")

        monkeypatch.setattr(uadi.systems, "ShiftedFactorization", broken)
        with pytest.raises(TypeError, match="bug inside"):
            StateSpaceSystem(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)))

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceSystem(np.eye(2), -np.eye(3), np.ones((2, 1)), np.ones((1, 2)))
        with pytest.raises(DimensionMismatch):
            StateSpaceSystem(np.eye(2), -np.eye(2), np.ones((3, 1)), np.ones((1, 2)))

    def test_dual(self):
        sys = random_stable_system(6, 2, 3, 0)
        d = sys.dual()
        assert d.m == 3 and d.p == 2
        assert np.array_equal(d.B, sys.C.T)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EquationParams(gamma1=0.0)
        with pytest.raises(DimensionMismatch):
            EquationParams(S1=np.ones((2, 3)))


class TestFileIO:
    def test_round_trip(self, tmp_path):
        sys = random_stable_system(12, 2, 3, 5)
        manifest = save_system(sys, tmp_path, name="sys")
        back = load_system(manifest)
        # array files round-trip bit-exactly; coordinate files to 17 digits
        assert np.array_equal(back.B, sys.B)
        assert np.array_equal(back.C, sys.C)
        assert np.array_equal(back.D, sys.D)
        assert abs(back.E - sys.E).max() <= 1e-16 * abs(sys.E).max()
        assert abs(back.A - sys.A).max() <= 1e-16 * abs(sys.A).max()
        assert back.label == sys.label

    def test_load_from_directory(self, tmp_path):
        sys = random_stable_system(5, 1, 1, 6)
        save_system(sys, tmp_path)
        back = load_system(tmp_path)
        assert back.n == 5

    def test_d_optional(self, tmp_path):
        sys = StateSpaceSystem(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
        manifest = save_system(sys, tmp_path)
        # remove the D entry: loader must default to zero
        lines = [l for l in manifest.read_text().splitlines() if not l.startswith("D=")]
        manifest.write_text("\n".join(lines) + "\n")
        back = load_system(manifest)
        assert np.array_equal(back.D, np.zeros((1, 1)))

    def test_singular_e_file(self, tmp_path):
        (tmp_path / "E.coord").write_text("2 2 1\n1 1 1.0\n")
        (tmp_path / "A.coord").write_text("2 2 2\n1 1 -1.0\n2 2 -1.0\n")
        (tmp_path / "B.array").write_text("2 1\n1\n1\n")
        (tmp_path / "C.array").write_text("1 2\n1\n1\n")
        (tmp_path / "m.manifest").write_text("E=E.coord\nA=A.coord\nB=B.array\nC=C.array\n")
        with pytest.raises(SingularE):
            load_system(tmp_path / "m.manifest")

    def test_missing_and_malformed(self, tmp_path):
        with pytest.raises(MissingMatrix):
            load_system(tmp_path / "nope.manifest")
        bad = tmp_path / "bad.manifest"
        bad.write_text("E x\n")
        with pytest.raises(ParseError):
            load_system(bad)


class TestPenzl:
    def test_rejects_small_n(self):
        with pytest.raises(InvalidSize):
            penzl_triple_peak(7, 10, 20, 30)

    def test_head_and_tail_eigenvalues(self):
        sys = penzl_triple_peak(8, 10, 20, 30)
        E, A = sys.E.toarray(), sys.A.toarray()
        head = spla.eigvals(A[:6, :6], E[:6, :6])
        want = [-1 + 10j, -1 - 10j, -1 + 20j, -1 - 20j, -1 + 30j, -1 - 30j]
        assert_multiset_close(head, want, tol=1e-8)
        tail = np.sort(spla.eigvals(A[6:, 6:], E[6:, 6:]).real)
        np.testing.assert_allclose(tail, [-2.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("n,ws", [(10, (1, 2, 3)), (40, (5, 25, 125))])
    def test_head_similarity_invariance(self, n, ws):
        sys = penzl_triple_peak(n, *ws)
        E, A = sys.E.toarray()[:6, :6], sys.A.toarray()[:6, :6]
        got = spla.eigvals(A, E)
        want = [complex(-1, w) for w in ws] + [complex(-1, -w) for w in ws]
        assert_multiset_close(got, want, tol=1e-8)

    def test_head_gramian_residual(self):
        """The 6x6 head construction reuses the small Lyapunov solver; its
        defining equations must be satisfied to solver accuracy."""
        penzl_triple_peak(100, 10, 20, 30)  # must build without error
        blocks = [np.array([[-1.0, w], [-w, -1.0]]) for w in (10, 20, 30)]
        aa = spla.block_diag(*blocks)
        bb = 10 * np.ones((6, 1))
        cc = 10 * np.ones((1, 6))
        pp = solve_small_lyapunov(aa.T, bb @ bb.T)
        qq = solve_small_lyapunov(aa, cc.T @ cc)
        scale = np.linalg.norm(bb @ bb.T)
        assert np.linalg.norm(aa @ pp + pp @ aa.T + bb @ bb.T) <= 1e-11 * scale
        assert np.linalg.norm(aa.T @ qq + qq @ aa + cc.T @ cc) <= 1e-11 * scale

    def test_million_order_construction(self):
        sys = penzl_triple_peak(10 ** 6, 10, 20, 30)
        assert sys.n == 10 ** 6 and sys.m == 1 and sys.p == 1
        assert sys.A.nnz < 3 * 10 ** 6 and sys.E.nnz < 3 * 10 ** 6

    def test_structure(self):
        sys = penzl_triple_peak(50, 10, 20, 30)
        assert sys.n == 50 and sys.m == 1 and sys.p == 1
        assert np.array_equal(sys.D, np.zeros((1, 1)))
        tail = sys.A.toarray()[6:, 6:]
        np.testing.assert_array_equal(tail, np.diag(-np.arange(1.0, 45.0)))


class TestIllustrativePair:
    def test_poles(self):
        g1, g2 = illustrative_pair()
        for g in (g1, g2):
            w = spla.eigvals(g.A.toarray(), g.E.toarray())
            for target in (-1 + 100j, -1 - 100j, -1 + 200j, -1 - 200j,
                           -1 + 400j, -1 - 400j):
                assert np.min(np.abs(w - target)) < 0.5

    def test_printed_entries(self):
        g1, g2 = illustrative_pair()
        assert g1.B[0, 0] == 0.5025
        assert g2.C[0, -1] == 0.4866
        assert np.array_equal(g1.A.toarray(), g2.A.toarray())

    def test_peak_locations(self):
        g1, g2 = illustrative_pair()
        freqs = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
        m1 = [abs(transfer_eval(g1, 1j * w)[0, 0]) for w in freqs]
        m2 = [abs(transfer_eval(g2, 1j * w)[0, 0]) for w in freqs]
        assert np.argmax(m1) == 1   # peak near 100 rad/s
        assert np.argmax(m2) == 3   # peak near 400 rad/s


class TestTransferEval:
    def test_scalar_values(self):
        sys = StateSpaceSystem(np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))
        assert transfer_eval(sys, 0.0)[0, 0] == pytest.approx(1.0)
        assert transfer_eval(sys, 1.0)[0, 0] == pytest.approx(0.5)

    def test_against_dense_resolvent(self):
        sys = random_stable_system(120, 2, 3, 11)
        E, A = sys.E.toarray(), sys.A.toarray()
        for s in (0.3j, 2.0 + 1.0j, 5.0):
            dense = sys.C @ spla.solve(s * E - A, sys.B) + sys.D
            got = transfer_eval(sys, s)
            assert np.linalg.norm(got - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_illustrative_peak_value(self):
        g1, _ = illustrative_pair()
        E, A = g1.E.toarray(), g1.A.toarray()
        s = 100j
        dense = g1.C @ spla.solve(s * E - A, g1.B)
        assert abs(transfer_eval(g1, s)[0, 0] - dense[0, 0]) <= 1e-10 * abs(dense[0, 0])


class TestRlcLadder:
    def test_properties(self):
        g = rlc_ladder(segments=12)
        assert g.n == 48 and g.m == 2 and g.p == 2
        w = spla.eigvals(g.A.toarray(), g.E.toarray())
        assert np.max(w.real) < 0
        # passivity margins on a frequency grid
        for om in np.logspace(-2, 2, 40):
            G = transfer_eval(g, 1j * om)
            assert np.min(spla.eigvalsh(G + G.conj().T)) > 0       # positive real
            assert spla.norm(G, 2) < 1.0                            # bounded real
        assert np.min(spla.svdvals(g.D)) > 0

    def test_order_1600(self):
        g = rlc_ladder(400)
        assert g.n == 1600

    def test_matches_entrywise_assembly(self):
        """The vectorized assembly equals the entry-by-entry construction."""
        import scipy.sparse as sps

        segments, feedthrough, scale = 3, 0.25, 0.12
        Es, As, bs, cs = [], [], [], []
        for R, L, Cap, Rl in ((0.1, 0.1, 0.1, 1.0), (0.5, 0.2, 0.2, 3.0)):
            ns = 2 * segments
            E = sps.lil_matrix((ns, ns))
            A = sps.lil_matrix((ns, ns))
            for k in range(segments):
                ii, iv = 2 * k, 2 * k + 1
                E[ii, ii], E[iv, iv] = L, Cap
                A[ii, ii] = -R
                A[ii, iv] = -1.0
                if k > 0:
                    A[ii, iv - 2] = 1.0
                A[iv, ii] = 1.0
                A[iv, iv] = -1.0 / Rl
                if k + 1 < segments:
                    A[iv, ii + 2] = -1.0
            b = np.zeros((ns, 1))
            b[0, 0] = 1.0
            c = np.zeros((1, ns))
            c[0, 0] = scale
            Es.append(E)
            As.append(A)
            bs.append(b)
            cs.append(c)
        E_ref = sps.block_diag(Es, format="csc")
        A_ref = sps.block_diag(As, format="csc")
        g = rlc_ladder(segments, feedthrough)
        assert (g.A != A_ref).nnz == 0 and g.A.nnz == A_ref.nnz
        assert (g.E != E_ref).nnz == 0 and g.E.nnz == E_ref.nnz
        assert np.array_equal(g.B, spla.block_diag(*bs))
        assert np.array_equal(g.C, spla.block_diag(*cs))
        assert np.array_equal(g.D, feedthrough * np.eye(2))
