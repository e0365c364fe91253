import numpy as np
import pytest
import scipy.linalg as spla

from uadi.errors import NonFiniteShift, SingularProjectedE, ZeroResidual
from uadi.realify import ShiftUnit
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
)
from uadi.systems import (
    StateSpaceSystem,
    illustrative_pair,
    penzl_triple_peak,
    random_stable_system,
)


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
        s1 = oracle.next_shift()
        s2 = oracle.next_shift()
        assert s2 == np.conj(s1) and s1.imag != 0

    def test_restart_cap_property(self):
        sys = random_stable_system(30, 2, 2, 6)
        oracle = SubspaceShiftOracle(sys, cap=6)
        rng = np.random.default_rng(0)
        for _ in range(10):
            oracle.observe(rng.standard_normal((30, 2)), rng.standard_normal((30, 2)))
            assert oracle.history.width <= 6
        # after a restart the basis is exactly the newest block's span
        oracle.observe(rng.standard_normal((30, 4)), rng.standard_normal((30, 2)))
        block = rng.standard_normal((30, 4))
        oracle.observe(block, rng.standard_normal((30, 2)))  # 4+4 > 6: restart
        got = oracle.history.basis
        ref = spla.orth(block)
        assert np.linalg.norm(got @ got.T - ref @ ref.T) < 1e-12

    def test_post_restart_shift_depends_only_on_new_history(self):
        sys = random_stable_system(30, 2, 2, 7)
        rng = np.random.default_rng(1)
        junk = [rng.standard_normal((30, 2)) for _ in range(3)]
        block = rng.standard_normal((30, 6))
        perp = rng.standard_normal((30, 2))
        a = SubspaceShiftOracle(sys, cap=6)
        for j in junk:
            a.observe(j, perp)   # width reaches the cap
        a.observe(block, perp)   # 6 + 6 > 6: restart on this block
        b = SubspaceShiftOracle(sys, cap=6)
        b.observe(block, perp)
        assert a.next_unit().value == b.next_unit().value

    def test_conjugate_pairing_invariant(self):
        sys = penzl_triple_peak(60, 5, 15, 25)
        oracle = SubspaceShiftOracle(sys, cap=20)
        from uadi.classic import CfAdi

        it = CfAdi(sys)
        emitted = []
        for _ in range(24):
            s = oracle.next_shift()
            emitted.append(s)
            if emitted[-1].imag != 0 and len(emitted) >= 2 \
                    and emitted[-2] == np.conj(emitted[-1]):
                pass
            kv = it.Z.shape[1]
            if s.imag < 0:   # second of a pair: already consumed by the unit
                continue
            it.step(ShiftUnit(s if s.imag != 0 else s.real))
            oracle.observe(it.Z[:, kv:], it.Bperp)
        k = 0
        while k < len(emitted):
            assert emitted[k].real < 0 and np.isfinite(emitted[k].real)
            if emitted[k].imag != 0:
                assert emitted[k + 1] == np.conj(emitted[k])
                k += 2
            else:
                k += 1


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
            kv, kw = st.V.shape[1], st.W.shape[1]
            uadi_step(st, unit, ShiftUnit(unit.value))
            oracle.observe(st.V[:, kv:], st.W[:, kw:], st.v.perp, st.w.perp)
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
