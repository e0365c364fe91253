import numpy as np
import pytest
import scipy.linalg as spla

from uadi.classic import (
    CfAdi,
    Radi,
    cf_adi,
    fadi,
    group_sylvester_cases,
    ldl_residual,
    radi,
)
from uadi.errors import DimensionMismatch, UnpairedComplexShift, UnstableShift
from uadi.realify import as_units
from uadi.systems import StateSpaceSystem, illustrative_pair, random_stable_system

from conftest import dense_lyap_p, dense_riccati_p, dense_sylvester


def scalar_system(a=-1.0, b=1.0, c=1.0, d=0.0):
    return StateSpaceSystem(np.eye(1), a * np.eye(1), b * np.ones((1, 1)),
                            c * np.ones((1, 1)), d * np.eye(1))


class TestCfAdi:
    def test_scalar_one_step_exact(self):
        sol, res, hist = cf_adi(scalar_system(), [-1.0])
        assert sol.left[0, 0] == pytest.approx(-np.sqrt(2) / 2)
        assert sol.product()[0, 0] == pytest.approx(0.5)   # exact Gramian
        assert abs(res.factor[0, 0]) < 1e-14
        assert hist[-1][1] < 1e-14

    def test_rejects_unstable_and_unpaired(self):
        sys = scalar_system()
        with pytest.raises(UnstableShift):
            cf_adi(sys, [1.0])
        with pytest.raises(UnpairedComplexShift):
            cf_adi(sys, [-1.0 + 1.0j, -2.0])

    def test_realification_closure(self):
        sys = random_stable_system(4, 1, 1, 2)
        sol, res, _ = cf_adi(sys, [-1 + 1j, -1 - 1j])
        assert np.isrealobj(sol.left) and np.isrealobj(res.factor)

    def test_converges_to_dense_solution(self):
        sys = random_stable_system(40, 2, 2, 7)
        lam = spla.eigvals(spla.solve(sys.E.toarray(), sys.A.toarray()))
        lo, hi = np.abs(lam.real).min(), np.abs(lam).max()
        shifts = [-x for x in np.logspace(np.log10(lo), np.log10(hi), 20)]
        sol, _, hist = cf_adi(sys, shifts)
        assert hist[-1][1] <= 1e-6
        P = dense_lyap_p(sys)
        assert np.linalg.norm(sol.product() - P) <= 1e-6 * np.linalg.norm(P)

    def test_residual_identity_every_iteration(self):
        """Dense substitution equals the tracked factor product, each step."""
        sys = random_stable_system(30, 2, 3, 8)
        E, A = sys.E.toarray(), sys.A.toarray()
        scale = np.linalg.norm(sys.B @ sys.B.T)
        it = CfAdi(sys)
        for u in as_units([-0.4, -1 + 2j, -1 - 2j, -3.0, -0.7 + 1j, -0.7 - 1j]):
            it.step(u)
            P = it.Z @ it.Z.T
            R = A @ P @ E.T + E @ P @ A.T + sys.B @ sys.B.T
            assert np.linalg.norm(R - it.Bperp @ it.Bperp.T) <= 1e-9 * scale

    def test_observability_side(self):
        sys = random_stable_system(25, 2, 2, 9)
        lam = spla.eigvals(spla.solve(sys.E.toarray(), sys.A.toarray()))
        shifts = [-x for x in np.logspace(np.log10(abs(lam.real).min()),
                                          np.log10(abs(lam).max()), 20)]
        sol, _, hist = cf_adi(sys.dual(), shifts)
        E, A = sys.E.toarray(), sys.A.toarray()
        Q = sol.product()
        R = A.T @ Q @ E + E.T @ Q @ A + sys.C.T @ sys.C
        assert np.linalg.norm(R) <= 1e-6 * np.linalg.norm(sys.C.T @ sys.C)


class TestLdlResidual:
    def test_zero_factor(self):
        from uadi.classic import ResidualFactor

        assert ldl_residual(ResidualFactor(np.zeros((5, 2))), np.eye(2)) == 0.0

    def test_identity_weight_reduces_to_plain(self):
        sys = random_stable_system(10, 2, 2, 3)
        _, res, _ = cf_adi(sys, [-0.5, -2.0])
        assert ldl_residual(res, np.eye(2)) == pytest.approx(res.norm2(), rel=1e-12)

    def test_matches_dense_weighted_residual(self):
        sys = random_stable_system(30, 2, 2, 4)
        S = np.array([[1.0, 1.0], [1.0, -1.0]])
        sol, res, _ = cf_adi(sys, [-0.5, -1 + 1j, -1 - 1j])
        E, A = sys.E.toarray(), sys.A.toarray()
        kv = sol.left.shape[1]
        Ps = sol.left @ np.kron(np.eye(kv // 2), S) @ sol.left.T
        R = A @ Ps @ E.T + E @ Ps @ A.T + sys.B @ S @ sys.B.T
        assert ldl_residual(res, S) == pytest.approx(np.linalg.norm(R, 2), rel=1e-9)

    def test_dimension_check(self):
        from uadi.classic import ResidualFactor

        with pytest.raises(DimensionMismatch):
            ldl_residual(ResidualFactor(np.ones((4, 2))), np.eye(3))


class TestFadi:
    def test_scalar_exact(self):
        sys = scalar_system()
        sol, (rb, rc), hist = fadi(sys, sys, [-1.0], [-1.0])
        assert sol.left[0, 0] == pytest.approx(-0.5)
        assert sol.middle[0, 0] == pytest.approx(2.0)
        assert sol.product()[0, 0] == pytest.approx(0.5)
        assert hist[-1][1] < 1e-14

    def test_case1_middle_blocks(self):
        s1 = random_stable_system(10, 2, 2, 5)
        s2 = random_stable_system(8, 2, 2, 6)
        sol, _, _ = fadi(s1, s2, [-0.5, -2.0], [-1.0, -3.0])
        np.testing.assert_allclose(sol.middle[:2, :2], -(-0.5 - 1.0) * np.eye(2))
        np.testing.assert_allclose(sol.middle[2:, 2:], -(-2.0 - 3.0) * np.eye(2))

    def test_table_rows(self):
        g1, g2 = illustrative_pair()
        _, _, h1 = fadi(g1, g2, [-1 + 100j, -1 - 100j], [-1 + 400j, -1 - 400j])
        assert h1[-1][1] == pytest.approx(3.51e4, rel=0.05)
        _, _, h2 = fadi(g1, g2, [-1 + 400j, -1 - 400j], [-1 + 100j, -1 - 100j])
        assert h2[-1][1] == pytest.approx(12.2839, rel=0.05)

    def test_mismatched_lengths_rejected(self):
        s1 = random_stable_system(6, 1, 1, 1)
        with pytest.raises(DimensionMismatch):
            fadi(s1, s1, [-1.0, -2.0], [-1.0])

    def test_width_mismatch_rejected(self):
        s1 = random_stable_system(6, 1, 2, 1)
        s2 = random_stable_system(6, 2, 2, 2)
        with pytest.raises(DimensionMismatch):
            fadi(s1, s2, [-1.0], [-1.0])

    @pytest.mark.parametrize("alphas,betas", [
        ([-0.5, -1.5], [-0.8, -2.5]),                                   # case 1
        ([-1 + 2j, -1 - 2j], [-2 + 1j, -2 - 1j]),                       # case 2
        ([-0.5, -1.5], [-2 + 1j, -2 - 1j]),                             # case 3
        ([-1 + 2j, -1 - 2j], [-0.8, -2.5]),                             # case 4
        ([-0.5, -1 + 2j, -1 - 2j, -1.5, -2.0, -3 + 1j, -3 - 1j, -4.0],
         [-0.8, -2 + 1j, -2 - 1j, -0.9, -1 + 3j, -1 - 3j, -1.1, -1.2]),  # mixed
    ])
    def test_residual_identity_all_cases(self, alphas, betas):
        s1 = random_stable_system(22, 2, 2, 12)
        s2 = random_stable_system(18, 3, 2, 13)
        sol, (rb, rc), _ = fadi(s1, s2, alphas, betas)
        assert np.isrealobj(sol.left) and np.isrealobj(sol.right)
        E1, A1 = s1.E.toarray(), s1.A.toarray()
        E2, A2 = s2.E.toarray(), s2.A.toarray()
        X = sol.product()
        R = A1 @ X @ E2 + E1 @ X @ A2 + s1.B @ s2.C
        scale = np.linalg.norm(s1.B @ s2.C)
        assert np.linalg.norm(R - rb.factor @ rc.factor) <= 1e-9 * scale

    def test_converges_to_dense_solution(self):
        s1 = random_stable_system(20, 2, 2, 14)
        s2 = random_stable_system(16, 2, 2, 15)
        lam1 = spla.eigvals(spla.solve(s1.E.toarray(), s1.A.toarray()))
        shifts = [-x for x in np.logspace(np.log10(abs(lam1.real).min()),
                                          np.log10(abs(lam1).max()) + 0.3, 24)]
        sol, _, hist = fadi(s1, s2, shifts, shifts)
        X = dense_sylvester(s1, s2)
        assert np.linalg.norm(sol.product() - X) <= 1e-6 * np.linalg.norm(X)

    def test_grouping_reorder(self):
        units_a = as_units([-1.0, -2 + 1j, -2 - 1j, -3.0])
        units_b = as_units([-4 + 2j, -4 - 2j, -5.0, -6.0])
        groups = group_sylvester_cases(units_a, units_b)
        # (real alpha vs beta pair) pulls the later real alpha forward
        assert len(groups[0][0]) == 2 and groups[0][0][1].value == -3.0
        with pytest.raises(UnpairedComplexShift):
            group_sylvester_cases(as_units([-1.0]), as_units([-4 + 2j, -4 - 2j]))


class TestRadi:
    def test_scalar_derived_values(self):
        """One step at shift -1 on the unit system: solve direction -0.5,
        step weight 1.6 in the unscaled convention, approximation 0.4 with
        residual factor 0.2; the true solution is sqrt(2) - 1."""
        sol, res, _ = radi(scalar_system(), [-1.0], 1)
        v_unscaled = sol.left[0, 0] / np.sqrt(2.0)      # undo sqrt(-2a) scaling
        assert v_unscaled == pytest.approx(-0.5)
        phat_unscaled = sol.middle[0, 0] * 2.0
        assert phat_unscaled == pytest.approx(1.6)
        assert sol.product()[0, 0] == pytest.approx(0.4)
        assert res.factor[0, 0] == pytest.approx(0.2)
        assert abs(sol.product()[0, 0] - (np.sqrt(2) - 1)) < 0.02

    def test_zero_input_gives_zero(self):
        sys = StateSpaceSystem(np.eye(3), -np.eye(3), np.zeros((3, 1)), np.ones((1, 3)))
        sol, res, hist = radi(sys, [-1.0, -2.0])
        assert np.linalg.norm(sol.product()) == 0.0
        assert np.linalg.norm(res.factor) == 0.0

    def test_residual_identity_every_iteration(self):
        sys = random_stable_system(30, 2, 2, 16)
        E, A = sys.E.toarray(), sys.A.toarray()
        scale = np.linalg.norm(sys.B @ sys.B.T)
        it = Radi(sys)
        for u in as_units([-0.5, -1 + 2j, -1 - 2j, -2.0]):
            it.step(u)
            P = it.V @ it.Phat @ it.V.T
            R = (A @ P @ E.T + E @ P @ A.T + sys.B @ sys.B.T
                 - E @ P @ sys.C.T @ sys.C @ P @ E.T)
            assert np.linalg.norm(R - it.Bperp @ it.Bperp.T) <= 1e-9 * scale
            assert np.isrealobj(it.V)

    def test_converges_to_dense_riccati(self):
        from uadi.shiftgen import SubspaceShiftOracle

        base = random_stable_system(40, 2, 2, 17)
        sys = StateSpaceSystem(base.E, base.A, base.B, 0.1 * base.C)
        oracle = SubspaceShiftOracle(sys, cap=20)
        it = Radi(sys)
        for _ in range(30):
            unit = oracle.next_unit()
            kv = it.V.shape[1]
            it.step(unit)
            oracle.observe(it.V[:, kv:], it.Bperp, feedback_gain=it.K)
        assert it.residual_norm() <= 1e-8
        P = dense_riccati_p(sys)
        sol = it.solution()
        assert np.linalg.norm(sol.product() - P) <= 1e-6 * np.linalg.norm(P)
