import numpy as np
import pytest
import scipy.linalg as spla

from uadi.errors import NonFiniteShift, SingularProjectedE, ZeroResidual
from uadi.realify import ShiftUnit
from uadi.classic import Radi
from uadi.shiftgen import (
    PetrovBtShiftOracle,
    ProjectionShiftOracle,
    StaticShiftOracle,
    SubspaceShiftOracle,
    SylvesterAlternatingOracle,
    next_shift_petrov_bt,
    next_shift_subspace,
    next_shifts_projection1,
    next_shifts_projection2,
    rank_dominance,
    sanitize_shift,
    _projected_pencil,
)
from uadi.systems import (
    StateSpaceSystem,
    illustrative_pair,
    penzl_triple_peak,
    random_stable_system,
    rlc_ladder,
)

EPS = np.finfo(float).eps


class TestSanitize:
    def test_sign_flip(self):
        assert sanitize_shift(2 + 3j) == pytest.approx(-2 + 3j)

    def test_stable_untouched(self):
        assert sanitize_shift(-5.0) == -5.0

    def test_axis_nudge(self):
        out = sanitize_shift(0 + 10j)
        assert out.imag == 10.0
        assert out.real == pytest.approx(-1e-8 * 11, rel=1e-12)
        assert -1e-6 < out.real <= -1e-8

    def test_margin_enforced(self):
        out = sanitize_shift(1e-12 + 1j)
        assert out.real <= -1e-8 * (1 + abs(1e-12 + 1j)) * 0.999

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteShift):
            sanitize_shift(np.nan + 1j)


class TestDominance:
    def test_two_pole_example(self):
        # equal residues: the slower pole dominates (score 100 vs 1)
        ranking = rank_dominance([-1.0, -100.0], [10.0, 10.0])
        assert ranking.top() == -1.0
        np.testing.assert_allclose(sorted(ranking.scores), [1.0, 100.0])

    def test_order_is_permutation_with_tiebreaks(self):
        lam = np.array([-1 + 2j, -1 - 2j, -1 + 5j, -2.0])
        rn = np.array([2.0, 2.0, 2.0, 2.0])
        ranking = rank_dominance(lam, rn)
        assert sorted(ranking.order.tolist()) == [0, 1, 2, 3]
        # same score for the first three: larger |Im| wins, then index order
        assert ranking.order[0] == 2
        assert tuple(ranking.order[1:3]) == (0, 1)

    def test_top_is_canonical_member_of_conjugate_pair(self):
        # the partners' scores differ by roundoff only; the emitted member
        # must not depend on it
        ranking = rank_dominance([-1 - 2j, -1 + 2j], [1 + 1e-15, 1.0])
        assert ranking.order[0] == 0 and ranking.top().imag > 0

    def test_scores_nonnegative_sorted(self, rng):
        lam = -np.abs(rng.standard_normal(8)) - 0.1 + 1j * rng.standard_normal(8)
        rn = np.abs(rng.standard_normal(8))
        ranking = rank_dominance(lam, rn)
        s = ranking.scores[ranking.order]
        assert np.all(s[:-1] >= s[1:] - 1e-15)
        assert np.all(ranking.scores >= 0)

    def test_residue_norms_match_the_per_pole_loop(self, rng):
        """The Galerkin and two-sided rankings take their residue norms as
        one product each; they equal the norms taken one pole at a time up
        to the reordered sums' roundoff."""
        from uadi.linalg import small_eig
        from uadi.shiftgen import _rank_galerkin, _rank_petrov

        Ah = -5.0 * np.eye(6) + 0.5 * rng.standard_normal((6, 6))
        Eh = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
        Bh, Ch = rng.standard_normal((6, 2)), rng.standard_normal((2, 6))
        w, _, Tl = small_eig(Ah, Eh)
        assert np.all(w.real < 0) and np.any(w.imag)
        _, ranking = _rank_galerkin(Ah, Eh, Bh)
        loop = [np.linalg.norm(Tl[l] @ Bh) for l in range(len(w))]
        np.testing.assert_allclose(ranking.residue_norms, loop, rtol=8 * EPS, atol=0)
        w, T, Tl = small_eig(spla.solve(Eh, Ah))
        Bt = spla.solve(Eh, Bh)
        rb = np.array([np.linalg.norm(Tl[l] @ Bt) for l in range(len(w))])
        rc = np.array([np.linalg.norm(Ch @ T[:, l]) for l in range(len(w))])
        _, ranking = _rank_petrov(Ah, Eh, Bh, Ch, Eh.T @ Eh)
        np.testing.assert_allclose(ranking.residue_norms, np.sqrt(rb * rc),
                                   rtol=8 * EPS, atol=0)


class TestProjectionStrategies:
    def test_eigenvector_aligned_residual(self):
        # E = I, A diagonal: residual along an eigenvector returns its pole
        A = np.diag([-3.0, -1.0, -7.0])
        sys = StateSpaceSystem(np.eye(3), A, np.ones((3, 1)), np.ones((1, 3)))
        b = np.array([[1.0], [0.0], [0.0]])
        shifts = next_shifts_projection1(b, sys)
        assert shifts[0] == pytest.approx(-3.0)

    def test_zero_residual(self):
        sys = random_stable_system(5, 1, 1, 0)
        with pytest.raises(ZeroResidual):
            next_shifts_projection1(np.zeros((5, 1)), sys)

    def test_single_input_shifts_real(self):
        sys = penzl_triple_peak(100, 10, 20, 30)
        b = np.asarray(sys.B)
        shifts = next_shifts_projection1(b, sys)
        assert all(s.imag == 0 for s in shifts)
        v = np.asarray(sys.E @ np.linalg.solve((sys.A + 0.5 * sys.E).toarray(), b))
        shifts2 = next_shifts_projection2(v, sys)
        assert all(s.imag == 0 for s in shifts2)

    def test_projection2_rayleigh_oracle(self):
        sys = random_stable_system(40, 1, 1, 3)
        v = np.random.default_rng(5).standard_normal((40, 1))
        got = next_shifts_projection2(v, sys)[0]
        q = v / np.linalg.norm(v)
        rq = (q.T @ (sys.A @ q)).item() / (q.T @ (sys.E @ q)).item()
        assert got == pytest.approx(sanitize_shift(rq))

    def test_oracle_emits_initial_then_projects(self):
        sys = random_stable_system(10, 2, 2, 4)
        oracle = ProjectionShiftOracle(sys, 1)
        first = oracle.next_unit()
        assert first.value == -0.001
        oracle.observe(np.ones((10, 2)), np.asarray(sys.B))
        second = oracle.next_unit()
        assert second.value.real < 0

    def test_projection2_ranks_on_newest_block(self):
        # Projection-II's window has cap 0: each ranking sees only the
        # columns added since the previous observation
        sys = random_stable_system(20, 2, 2, 12)
        rng = np.random.default_rng(6)
        X, perp = rng.standard_normal((20, 4)), rng.standard_normal((20, 2))

        def first_unit(block):
            return next(v for v in next_shifts_projection2(block, sys)
                        if v.imag >= 0)

        oracle = ProjectionShiftOracle(sys, 2)
        oracle.observe(X[:, :2], perp)
        assert oracle.next_unit().value == first_unit(X[:, :2])
        while oracle._unit_queue:
            oracle.next_unit()
        oracle.observe(X[:, :4], perp)
        want = first_unit(X[:, 2:])
        assert want != first_unit(X)   # the whole window would rank otherwise
        assert oracle.next_unit().value == want

    def test_complex_ritz_values_come_in_adjacent_pairs(self):
        # orth of a full-rank residual factor spans the whole space, so the
        # Ritz values are the poles -1 +- 3j, -2 +- 5j and -0.5
        rng = np.random.default_rng(8)
        Q = rng.standard_normal((5, 5))
        A0 = Q @ spla.block_diag([[-1.0, 3.0], [-3.0, -1.0]],
                                 [[-2.0, 5.0], [-5.0, -2.0]], -0.5) @ np.linalg.inv(Q)
        E = np.eye(5) + 0.2 * rng.standard_normal((5, 5))
        sys = StateSpaceSystem(E, E @ A0, np.eye(5), np.ones((1, 5)))
        poles = [-1 + 3j, -1 - 3j, -2 + 5j, -2 - 5j, -0.5]
        shifts = next_shifts_projection1(sys.B, sys)
        assert len(shifts) == 5 and all(s.real < 0 for s in shifts)
        for want in poles:
            assert min(abs(s - want) for s in shifts) < 1e-8
        i = 0
        while i < len(shifts):
            if shifts[i].imag == 0:
                i += 1
                continue
            assert shifts[i + 1] == shifts[i].conjugate()
            i += 2
        oracle = ProjectionShiftOracle(sys, 1)
        oracle.observe(np.ones((5, 1)), sys.B)
        units = [oracle.next_unit()]
        while oracle._unit_queue:
            units.append(oracle.next_unit())
        assert len(units) == 3   # one unit per conjugate pair, one real
        for want in (-1 + 3j, -2 + 5j, -0.5):
            assert min(abs(u.value - want) for u in units) < 1e-8


class TestSubspaceOracle:
    def test_exact_invariant_subspace(self):
        # history spanning the invariant subspace of a complex pair with a
        # residual exciting only that pair returns the pair, conjugate next
        blocks = [np.array([[-1.0, 10.0], [-10.0, -1.0]]), np.diag([-5.0, -6.0])]
        A = spla.block_diag(*blocks)
        sys = StateSpaceSystem(np.eye(4), A, np.ones((4, 1)), np.ones((1, 4)))
        hist = np.vstack([np.eye(2), np.zeros((2, 2))])
        bperp = np.array([[1.0], [1.0], [0.0], [0.0]])
        shift, ranking = next_shift_subspace(hist, bperp, sys)
        assert shift == pytest.approx(-1 + 10j) or shift == pytest.approx(-1 - 10j)
        oracle = SubspaceShiftOracle(sys)
        oracle.observe(hist, bperp)
        s1, s2 = oracle.next_unit().shifts()
        assert s2 == np.conj(s1) and s1.imag != 0

    def test_restart_cap_property(self):
        sys = random_stable_system(30, 2, 2, 6)
        oracle = SubspaceShiftOracle(sys, cap=6)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 30))
        for k in range(2, 22, 2):   # the basis grows by 2 columns per step
            oracle.observe(X[:, :k], rng.standard_normal((30, 2)))
            assert oracle.history.width <= 6
        # widths 2, 4, 6, then 8 > 6: each restart keeps only the newest block
        assert oracle.history.start == 18 and oracle.history.width == 2
        oracle.observe(X[:, :24], rng.standard_normal((30, 2)))   # 6 <= 6
        oracle.observe(X[:, :28], rng.standard_normal((30, 2)))   # 10 > 6
        got = oracle.history.basis
        ref = spla.orth(X[:, 24:28])
        assert np.linalg.norm(got @ got.T - ref @ ref.T) < 1e-12
        assert np.shares_memory(oracle.history.X, X)   # a window, no copy

    def test_post_restart_shift_depends_only_on_new_history(self):
        sys = random_stable_system(30, 2, 2, 7)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 12))   # three 2-column blocks, then 6
        perp = rng.standard_normal((30, 2))
        a = SubspaceShiftOracle(sys, cap=6)
        for k in (2, 4, 6):
            a.observe(X[:, :k], perp)   # width reaches the cap
        a.observe(X, perp)              # 6 + 6 > 6: restart on the new block
        assert a.history.start == 6
        b = SubspaceShiftOracle(sys, cap=6)
        b.observe(X[:, 6:], perp)
        assert a.next_unit().value == b.next_unit().value

    def test_conjugate_pairing_invariant(self):
        sys = penzl_triple_peak(60, 5, 15, 25)
        oracle = SubspaceShiftOracle(sys, cap=20)
        from uadi.classic import CfAdi

        it = CfAdi(sys)
        emitted = []
        while len(emitted) < 24:
            unit = oracle.next_unit()
            emitted.extend(unit.shifts())
            it.step(unit)
            oracle.observe(it.Z, it.Bperp)
        k = 0
        while k < len(emitted):
            assert emitted[k].real < 0 and np.isfinite(emitted[k].real)
            if emitted[k].imag != 0:
                assert emitted[k + 1] == np.conj(emitted[k])
                k += 2
            else:
                k += 1


class TestHeldFrame:
    """A window grows its orthonormal frame Q and its Galerkin pencil one
    block at a time.  After every observation, with restarts, the held
    matrices equal the direct products on the held Q, Q spans the window
    with scipy.linalg.orth's rank, and the ranking equals the one on a fresh
    orth of the window.  Two orthonormalizations of one window differ by up
    to about eps * kappa (its condition number over the kept directions) in
    angle, so that is where the last comparison's tolerance grows."""

    @staticmethod
    def _check(window):
        Q, Xw = window.basis, window.X[:, window.start:]
        P = spla.orth(Xw)
        assert Q.shape[1] == P.shape[1]   # the drop rule keeps orth's rank
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-13
        assert np.linalg.norm(Xw - Q @ (Q.T @ Xw)) <= 1e-13 * np.linalg.norm(Xw)
        sv = spla.svdvals(Xw)
        kappa = sv[0] / sv[P.shape[1] - 1]
        assert np.abs(Q @ Q.T - P @ P.T).max() <= max(1e-12, EPS * kappa)
        for held, want in zip(window.pencil(), _projected_pencil(Q, window.sys)):
            assert np.abs(held - want).max() <= 1e-12 * np.abs(want).max()
        got = window.rank().value
        on_q, _ = next_shift_subspace(Q, window.perp, window.sys, window.gain)
        assert abs(got - on_q) <= 1e-12 * abs(on_q)
        fresh, _ = next_shift_subspace(P, window.perp, window.sys, window.gain)
        assert abs(got - fresh) <= max(1e-10, 50 * EPS * kappa) * abs(fresh)
        return kappa

    @pytest.mark.parametrize("kind", ["nearly-dependent", "dependent"])
    def test_window_matches_direct_route(self, kind):
        sys = penzl_triple_peak(200, 5, 15, 25)
        rng = np.random.default_rng(1)
        oracle = SubspaceShiftOracle(sys, cap=12)
        X = rng.standard_normal((200, 2))
        kappas = []
        for _ in range(30):
            if kind == "nearly-dependent":   # a mix of the last block, nudged
                block = X[:, -2:] @ rng.standard_normal((2, 2)) \
                    + 1e-7 * rng.standard_normal((200, 2))
            else:   # a new column and an exact multiple of it
                c = rng.standard_normal((200, 1))
                block = np.hstack([c, 2.0 * c])
            X = np.hstack([X, block])
            oracle.observe(X, rng.standard_normal((200, 1)))
            kappas.append(self._check(oracle.history))
            if kind == "dependent":   # one direction per block is dropped
                assert oracle.history.basis.shape[1] < oracle.history.width
        assert oracle.history.epoch >= 4   # restarted
        if kind == "nearly-dependent":
            assert max(kappas) > 1e10   # sigma_min / sigma_max below 1e-10

    def test_gain_deflated_window(self):
        sys = random_stable_system(60, 2, 2, 3)
        it, oracle = Radi(sys), SubspaceShiftOracle(sys, cap=10)
        for _ in range(30):
            it.step(oracle.next_unit())
            oracle.observe(it.V, it.Bperp, feedback_gain=it.K)
            self._check(oracle.history)
        assert oracle.history.epoch >= 4 and np.any(oracle.history.gain)

    def test_two_sided_windows(self):
        """The Petrov oracle's cross matrices on the two held frames equal
        the direct products, also when the windows restart at different
        observations, and it ranks as on fresh orths of the windows."""
        sys = rlc_ladder(segments=15)
        rng = np.random.default_rng(2)
        oracle = PetrovBtShiftOracle(sys, cap=8)
        V, W = rng.standard_normal((sys.n, 2)), rng.standard_normal((sys.n, 3))
        for _ in range(20):
            V = np.hstack([V, rng.standard_normal((sys.n, 2))])
            W = np.hstack([W, rng.standard_normal((sys.n, 3))])
            v_perp = rng.standard_normal((sys.n, sys.m))
            w_perp = rng.standard_normal((sys.n, sys.p))
            oracle.observe(V, W, v_perp, w_perp)
            got = oracle.next_unit().value
            v, w = oracle.hist_v, oracle.hist_w
            Qv, Qw = v.basis, w.basis
            EV = sys.E @ Qv
            for held, want in zip(oracle._held,
                                  (Qw.T @ (sys.A @ Qv), Qw.T @ EV, EV.T @ EV)):
                assert np.abs(held - want).max() <= 1e-12 * np.abs(want).max()
            fresh, _ = next_shift_petrov_bt(spla.orth(V[:, v.start:]),
                                            spla.orth(W[:, w.start:]),
                                            v_perp, w_perp, sys)
            assert abs(got - fresh) <= 1e-10 * abs(fresh)
        assert v.epoch != w.epoch   # the windows restarted apart


class TestRightHalfPlaneRitz:
    """A Galerkin projection of a stable non-normal pencil can have Ritz
    values with Re > 0.  They estimate no pole, so they must not be ranked
    while a stable Ritz value exists."""

    @staticmethod
    def _jordan(lam, c):
        return np.array([[lam, c], [0.0, lam]])

    @pytest.mark.parametrize("dual", [False, True],
                             ids=["controllable", "observable"])
    def test_top_stable_ritz_value_wins(self, dual):
        # stable A; on span{(e1+e2)/sqrt2, e3} the projection is diag(4, -2)
        A = spla.block_diag(self._jordan(-1.0, 10.0), [[-2.0]])
        b = np.array([[1.0], [1.0], [0.1]])
        sys = StateSpaceSystem(np.eye(3), A, b, b.T)
        if dual:   # the W side ranks on the dual with the n x p factor
            sys = sys.dual()
        hist = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, np.sqrt(2.0)]]) / np.sqrt(2.0)
        perp = b
        np.testing.assert_allclose(hist.T @ A @ hist, np.diag([4.0, -2.0]), atol=1e-14)
        # residues sqrt2 and 0.1: the plain score ranks Ritz value 4 first
        assert rank_dominance([4.0, -2.0], [np.sqrt(2.0), 0.1]).top() == 4.0
        shift, ranking = next_shift_subspace(hist, perp, sys)
        assert shift == pytest.approx(-2.0)
        assert np.all(ranking.eigenvalues.real < 0)
        oracle = SubspaceShiftOracle(sys)
        oracle.observe(hist, perp)
        assert oracle.next_unit().value == pytest.approx(-2.0)

    def test_all_unstable_mirrors_top(self):
        # both Ritz values unstable (4 and 1): the top-ranked one is mirrored
        A = spla.block_diag(self._jordan(-1.0, 10.0), self._jordan(-1.0, 4.0))
        b = np.ones((4, 1))
        sys = StateSpaceSystem(np.eye(4), A, b, b.T)
        hist = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]) / np.sqrt(2.0)
        shift, ranking = next_shift_subspace(hist, b, sys)
        np.testing.assert_allclose(np.sort(ranking.eigenvalues.real), [1.0, 4.0])
        assert ranking.top() == pytest.approx(1.0)   # score 2/1 beats 2/4
        assert shift == pytest.approx(-1.0)


class TestPetrovOracle:
    def test_symmetric_system_matches_galerkin(self):
        # symmetric realization with B = C^T: the two-sided ranking equals
        # the one-sided one when both histories coincide
        rng = np.random.default_rng(2)
        M = rng.standard_normal((12, 12))
        A = -(M @ M.T) - 0.5 * np.eye(12)
        B = rng.standard_normal((12, 1))
        sys = StateSpaceSystem(np.eye(12), A, B, B.T)
        hist = spla.orth(rng.standard_normal((12, 4)))
        perp = sys.B.copy()
        s_p, _ = next_shift_petrov_bt(hist, hist, perp, perp, sys)
        s_g, _ = next_shift_subspace(hist, perp, sys)
        assert s_p == pytest.approx(s_g)

    def test_unobservable_pole_never_selected(self):
        # pole 1 has huge controllability residue but zero observability
        A = np.diag([-1.0, -2.0])
        sys = StateSpaceSystem(np.eye(2), A, np.array([[10.0], [1.0]]),
                               np.array([[0.0, 1.0]]))
        hist = np.eye(2)
        s, ranking = next_shift_petrov_bt(hist, hist, sys.B, sys.C.T, sys)
        assert s == pytest.approx(-2.0)
        assert ranking.scores[0] == pytest.approx(0.0)

    def test_windows_of_different_widths(self):
        # a 4-column V window spanning an invariant subspace and a random
        # 6-column W window: the projected E is 6 x 4, solved in the least
        # squares sense, and A V = E V Lambda makes that solve exact
        rng = np.random.default_rng(4)
        Q = rng.standard_normal((10, 10))
        A0 = Q @ np.diag(-np.arange(1.0, 11.0)) @ np.linalg.inv(Q)
        E = np.eye(10) + 0.2 * rng.standard_normal((10, 10))
        sys = StateSpaceSystem(E, E @ A0, rng.standard_normal((10, 1)),
                               rng.standard_normal((1, 10)))
        V = spla.orth(Q[:, :4])
        W = spla.orth(rng.standard_normal((10, 6)))
        assert V.shape[1] == 4 and W.shape[1] == 6
        s, ranking = next_shift_petrov_bt(V, W, sys.B, sys.C.T, sys)
        assert np.isfinite(s) and s.real < 0
        assert len(ranking.eigenvalues) == 4
        assert min(abs(s - p) for p in (-1.0, -2.0, -3.0, -4.0)) < 1e-8

    def test_singular_projected_e_fallback(self):
        sys = random_stable_system(10, 1, 1, 9)
        V = spla.orth(np.random.default_rng(3).standard_normal((10, 2)))
        # W orthogonal to E V makes the projected E singular
        EV = np.asarray(sys.E @ V)
        W = spla.orth(np.eye(10) - EV @ np.linalg.pinv(EV))[:, :2]
        with pytest.raises(SingularProjectedE):
            next_shift_petrov_bt(V, W, np.asarray(sys.B), np.asarray(sys.C).T, sys)
        oracle = PetrovBtShiftOracle(sys, cap=8)
        oracle.observe(V, W, np.asarray(sys.B), np.asarray(sys.C).T)
        unit = oracle.next_unit()   # falls back to Galerkin, must not raise
        assert unit.value.real < 0


class TestSylvesterAlternating:
    def test_alternation_parity(self):
        s1 = random_stable_system(12, 1, 1, 10)
        s2 = random_stable_system(12, 1, 1, 11)
        oracle = SylvesterAlternatingOracle(s1, s2.dual(), cap=10)
        assert oracle.next_unit().value == -0.001
        assert oracle.last_projected == "none"
        rng = np.random.default_rng(4)
        for expect in ("sys1", "sys2", "sys1", "sys2"):
            oracle.observe(rng.standard_normal((12, 1)), rng.standard_normal((12, 1)),
                           rng.standard_normal((12, 1)), rng.standard_normal((12, 1)))
            oracle.next_unit()
            assert oracle.last_projected == expect


class TestPetrovDominantPoleCapture:
    def test_locks_onto_dense_dominant_pole(self):
        """Driving the engine with the two-sided strategy on the passive
        ladder network must emit a shift near the network's true dominant
        pole (dense eigentriple residue analysis as the oracle)."""
        from uadi.systems import rlc_ladder
        from uadi.uadi import uadi_init, uadi_step

        g = rlc_ladder(segments=20)   # n = 80
        E, A = g.E.toarray(), g.A.toarray()
        lam, T = spla.eig(spla.solve(E, A))
        Tl = spla.inv(T)
        rb = np.array([np.linalg.norm(Tl[l] @ spla.solve(E, g.B)) for l in range(len(lam))])
        rc = np.array([np.linalg.norm(g.C @ T[:, l]) for l in range(len(lam))])
        dom = lam[np.argmax(rb * rc / np.abs(lam.real))]

        oracle = PetrovBtShiftOracle(g, cap=10)
        st = uadi_init(g, g, None, "lyap_p,lyap_q")
        emitted = []
        for _ in range(8):
            unit = oracle.next_unit()
            emitted.extend(unit.shifts())
            uadi_step(st, unit, ShiftUnit(unit.value))
            oracle.observe(st.V, st.W, st.v.perp, st.w.perp)
        dist = min(min(abs(s - dom), abs(s - np.conj(dom))) for s in emitted)
        assert dist <= 0.05 * abs(dom), (dom, emitted)


class TestIllustrativeRanking:
    def test_most_controllable_pole_of_g1(self):
        g1, _ = illustrative_pair()
        # full-basis projection: ranking must put the 100 rad/s pair first
        hist = np.eye(6)
        _, ranking = next_shift_subspace(hist, np.asarray(g1.B), g1)
        top = ranking.eigenvalues[ranking.order[0]]
        assert abs(top.imag) == pytest.approx(100, rel=0.01)


class TestStaticOracle:
    def test_cycles_units(self):
        oracle = StaticShiftOracle([-1.0, -2 + 1j, -2 - 1j])
        vals = [oracle.next_unit().value for _ in range(4)]
        assert vals == [-1.0, -2 + 1j, -1.0, -2 + 1j]
